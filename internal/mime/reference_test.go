package mime

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	stdmime "mime"
	"mime/quotedprintable"
	"net/textproto"
	"strings"
)

// This file keeps the line-splitting, byte-copying parser that Parse
// replaced, as the reference the differential tests compare Parse
// against. refParseEntity mirrors parseEntity; the four helpers below it
// are the replaced implementations, unchanged.

// ReferenceParse parses raw with the reference implementation. It is
// exported for the corpus test in package mime_test.
func ReferenceParse(raw []byte) (*Part, error) {
	// The reference splitHeaderBody appends into raw's spare capacity;
	// clipping the capacity keeps the caller's buffer intact.
	return refParseEntity(raw[:len(raw):len(raw)], 0)
}

func refParseEntity(raw []byte, depth int) (*Part, error) {
	if depth > MaxDepth {
		return nil, ErrTooDeep
	}
	header, body, err := refSplitHeaderBody(raw)
	if err != nil {
		return nil, err
	}
	p := &Part{Header: header, Params: map[string]string{}}
	ct := header.Get("Content-Type")
	if ct == "" {
		ct = "text/plain; charset=us-ascii"
	}
	mediaType, params, err := stdmime.ParseMediaType(ct)
	if err != nil {
		mediaType, params = "text/plain", map[string]string{}
	}
	p.ContentType = strings.ToLower(mediaType)
	p.Params = params
	if cd := header.Get("Content-Disposition"); cd != "" {
		if disp, dparams, err := stdmime.ParseMediaType(cd); err == nil {
			p.Disposition = strings.ToLower(disp)
			if fn, ok := dparams["filename"]; ok {
				p.Filename = fn
			}
		}
	}
	if p.Filename == "" {
		if name, ok := params["name"]; ok {
			p.Filename = name
		}
	}

	switch {
	case strings.HasPrefix(p.ContentType, "multipart/"):
		boundary := params["boundary"]
		if boundary == "" {
			return nil, fmt.Errorf("mime: multipart part without boundary")
		}
		children, err := refSplitMultipart(body, boundary)
		if err != nil {
			return nil, err
		}
		for _, chunk := range children {
			child, err := refParseEntity(chunk, depth+1)
			if err != nil {
				return nil, err
			}
			p.Children = append(p.Children, child)
		}
	case p.ContentType == "message/rfc822":
		decoded, err := refDecodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
		child, err := refParseEntity(decoded, depth+1)
		if err != nil {
			return p, nil //nolint:nilerr // graceful degradation by design
		}
		p.Children = append(p.Children, child)
	default:
		decoded, err := refDecodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
	}
	return p, nil
}

func refSplitHeaderBody(raw []byte) (textproto.MIMEHeader, []byte, error) {
	normalized := refNormalizeCRLF(raw)
	idx := bytes.Index(normalized, []byte("\r\n\r\n"))
	var headerBytes, body []byte
	if idx < 0 {
		headerBytes = normalized
		body = nil
	} else {
		headerBytes = normalized[:idx+2]
		body = normalized[idx+4:]
	}
	if len(bytes.TrimSpace(headerBytes)) == 0 {
		return nil, nil, ErrNoHeaders
	}
	r := textproto.NewReader(bufio.NewReader(bytes.NewReader(append(headerBytes, '\r', '\n'))))
	header, err := r.ReadMIMEHeader()
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("mime: parsing headers: %w", err)
	}
	return header, body, nil
}

func refNormalizeCRLF(raw []byte) []byte {
	if !bytes.Contains(raw, []byte("\n")) {
		return raw
	}
	var out bytes.Buffer
	out.Grow(len(raw) + len(raw)/20)
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\n' && (i == 0 || raw[i-1] != '\r') {
			out.WriteByte('\r')
		}
		out.WriteByte(raw[i])
	}
	return out.Bytes()
}

func refSplitMultipart(body []byte, boundary string) ([][]byte, error) {
	delim := []byte("--" + boundary)
	var chunks [][]byte
	lines := bytes.Split(body, []byte("\r\n"))
	var current []byte
	inPart := false
	closed := false
	for _, line := range lines {
		trimmed := bytes.TrimRight(line, " \t")
		switch {
		case bytes.Equal(trimmed, delim):
			if inPart {
				chunks = append(chunks, bytes.TrimSuffix(current, []byte("\r\n")))
			}
			current = nil
			inPart = true
		case bytes.Equal(trimmed, append(append([]byte{}, delim...), '-', '-')):
			if inPart {
				chunks = append(chunks, bytes.TrimSuffix(current, []byte("\r\n")))
			}
			inPart = false
			closed = true
		default:
			if inPart {
				current = append(current, line...)
				current = append(current, '\r', '\n')
			}
		}
		if closed {
			break
		}
	}
	if !closed && inPart {
		chunks = append(chunks, bytes.TrimSuffix(current, []byte("\r\n")))
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("mime: no parts found for boundary %q", boundary)
	}
	return chunks, nil
}

func refDecodeTransfer(body []byte, encoding string) ([]byte, error) {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "", "7bit", "8bit", "binary":
		return body, nil
	case "base64":
		cleaned := removeWhitespace(body)
		out := make([]byte, base64.StdEncoding.DecodedLen(len(cleaned)))
		n, err := base64.StdEncoding.Decode(out, cleaned)
		if err != nil {
			return nil, fmt.Errorf("mime: decoding base64 body: %w", err)
		}
		if n > len(out) {
			n = len(out)
		}
		return out[:n], nil
	case "quoted-printable":
		out, err := io.ReadAll(quotedprintable.NewReader(bytes.NewReader(body)))
		if err != nil {
			return nil, fmt.Errorf("mime: decoding quoted-printable body: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("mime: unsupported transfer encoding %q", encoding)
	}
}
