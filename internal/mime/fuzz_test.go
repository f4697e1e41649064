package mime

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzParseMessage drives the recursive RFC-5322/MIME parser with builder
// output — multipart, nested message/rfc822, attachments — plus corrupted
// and hostile variants. The contract: never panic, never return a nil
// *Part without an error, never modify the input, and produce exactly the
// tree and error of the reference parser (reference_test.go), no matter
// how mangled the input. The seed corpus runs as ordinary test cases;
// `go test -fuzz=FuzzParseMessage` explores beyond it.
func FuzzParseMessage(f *testing.F) {
	at := time.Date(2024, 3, 1, 9, 0, 0, 0, time.UTC)
	simple := NewBuilder("a@x.example", "b@y.example", "hello", at).
		Text("plain body").Build()
	multipart := NewBuilder("it@corp.example", "user@corp.example", "reset", at).
		Text("see attachment").
		Attach("application/pdf", "invoice.pdf", []byte("%PDF-1.4 fake")).
		Build()
	nested := NewBuilder("fw@x.example", "b@y.example", "fwd", at).
		Text("forwarded").
		AttachEML("original.eml", simple).
		Build()
	f.Add(simple)
	f.Add(multipart)
	f.Add(nested)
	f.Add(multipart[:len(multipart)/2])
	f.Add(bytes.Replace(multipart, []byte("boundary"), []byte("bound"), 1))
	f.Add([]byte("Subject: bare\r\n\r\n"))
	// Regression: a base64 body exercises the decodeTransfer clamp of the
	// decoded length against the output buffer.
	f.Add([]byte("Content-Transfer-Encoding: base64\r\nContent-Type: text/plain\r\n\r\nSGVs bG8s\r\nIHdvcmxkIQ==\r\n"))
	f.Add([]byte("no headers at all"))
	f.Add([]byte{})
	// Lone LFs, mixed with CRLFs, take the normalizing copy.
	f.Add(bytes.ReplaceAll(nested, []byte("\r\n"), []byte("\n")))
	f.Add([]byte("Subject: mixed\r\nContent-Type: multipart/mixed; boundary=B\n\n--B\nContent-Type: text/plain\r\n\nlf body\n--B--\n"))
	// Missing closing delimiter, and delimiters with trailing whitespace.
	f.Add([]byte("Content-Type: multipart/mixed; boundary=B\r\n\r\n--B\r\nContent-Type: text/plain\r\n\r\nunterminated"))
	f.Add([]byte("Content-Type: multipart/mixed; boundary=B\r\n\r\n--B \t\r\nContent-Type: text/plain\r\n\r\none\r\n--B\t\r\n\r\ntwo\r\n--B-- \r\nepilogue"))
	// Adjacent delimiters (an empty part), and a boundary that ends a
	// line without starting it, which is not a delimiter.
	f.Add([]byte("Content-Type: multipart/mixed; boundary=B\r\n\r\n--B\r\n--B\r\nX: y\r\n\r\nz\r\n--B--"))
	f.Add([]byte("Content-Type: multipart/mixed; boundary=B\r\n\r\n--B\r\nX: y\r\n\r\nsee --B\r\n--B--"))
	// A base64 body with spaces and tabs between its groups.
	f.Add([]byte("Content-Type: text/plain\r\nContent-Transfer-Encoding: base64\r\n\r\naGVs bG8g\tcGhp c2g=\r\n"))
	f.Add([]byte("Content-Type: text/plain\r\nContent-Transfer-Encoding: quoted-printable\r\n\r\nsoft=\r\nbreak =3D done  \r\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := bytes.Clone(raw)
		p, err := Parse(raw)
		if err == nil && p == nil {
			t.Fatal("Parse returned nil *Part with nil error")
		}
		if !bytes.Equal(raw, orig) {
			t.Fatal("Parse modified its input")
		}
		want, wantErr := ReferenceParse(raw)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Parse error = %v, reference error = %v", err, wantErr)
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("Parse tree differs from the reference:\n got %+v\nwant %+v", p, want)
		}
	})
}
