// Package mime implements the recursive email parsing substrate of the
// CrawlerBox pipeline (Section IV-B of the paper): RFC-5322 header handling,
// multipart traversal to arbitrary nesting depth, base64 and
// quoted-printable transfer decoding, content-type dispatch, magic-number
// sniffing for application/octet-stream parts, and recursive descent into
// message/rfc822 (EML) attachments — plus a builder for composing the
// synthetic corpus.
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

// MaxDepth bounds recursive multipart/EML nesting; real-world abuse includes
// deeply nested EML bombs, which the parser must reject rather than follow.
const MaxDepth = 16

// Errors returned by the parser.
var (
	ErrTooDeep   = errors.New("mime: message nesting exceeds MaxDepth")
	ErrNoHeaders = errors.New("mime: message has no header block")
)

// Part is one node of a parsed message tree. The root Part is the message
// itself; multipart containers carry Children; leaves carry decoded Body.
type Part struct {
	// Header holds the part's headers with canonical MIME keys.
	Header textproto.MIMEHeader
	// ContentType is the lowercase media type (e.g. "text/html").
	ContentType string
	// Params holds content-type parameters (charset, boundary, name...).
	Params map[string]string
	// Disposition is "inline", "attachment", or "" when absent.
	Disposition string
	// Filename is the decoded attachment filename, if any.
	Filename string
	// Body is the transfer-decoded content for leaf parts. It may alias
	// the raw message passed to Parse (for 7bit, 8bit and binary parts),
	// which other goroutines may be parsing at the same time: treat it as
	// read-only and copy it before modifying it.
	Body []byte
	// Children are the sub-parts of multipart/* and message/rfc822 parts.
	Children []*Part
}

// Parse parses a raw RFC-5322 message into a part tree.
func Parse(raw []byte) (*Part, error) {
	return parseEntity(raw, 0)
}

func parseEntity(raw []byte, depth int) (*Part, error) {
	if depth > MaxDepth {
		return nil, ErrTooDeep
	}
	header, body, err := splitHeaderBody(raw)
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
		// Tolerate malformed content types the way mail clients do: treat
		// the part as opaque text rather than failing the whole message.
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
		children, err := splitMultipart(body, boundary)
		if err != nil {
			return nil, err
		}
		for _, chunk := range children {
			child, err := parseEntity(chunk, depth+1)
			if err != nil {
				return nil, err
			}
			p.Children = append(p.Children, child)
		}
	case p.ContentType == "message/rfc822":
		decoded, err := decodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
		child, err := parseEntity(decoded, depth+1)
		if err != nil {
			// A corrupt attached EML is kept as an opaque body; the walker
			// will still surface it.
			return p, nil //nolint:nilerr // graceful degradation by design
		}
		p.Children = append(p.Children, child)
	default:
		decoded, err := decodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
	}
	return p, nil
}

// splitHeaderBody separates the header block from the body and parses
// headers with unfolding. It never writes to raw: the body it returns is a
// capacity-clipped sub-slice of raw unless raw holds a lone LF.
func splitHeaderBody(raw []byte) (textproto.MIMEHeader, []byte, error) {
	// Normalize bare LF to CRLF for the textproto reader.
	normalized := normalizeCRLF(raw)
	var block, body []byte
	if idx := bytes.Index(normalized, []byte("\r\n\r\n")); idx >= 0 {
		// The header lines plus the blank line that ends them.
		block = normalized[:idx+4]
		body = normalized[idx+4 : len(normalized) : len(normalized)]
		if len(bytes.TrimSpace(block[:idx+2])) == 0 {
			return nil, nil, ErrNoHeaders
		}
	} else {
		// Header-only entity (empty body) is legal. The terminating blank
		// line is appended to a copy, since raw may be shared.
		if len(bytes.TrimSpace(normalized)) == 0 {
			return nil, nil, ErrNoHeaders
		}
		block = append(normalized[:len(normalized):len(normalized)], '\r', '\n')
	}
	r := textproto.NewReader(bufio.NewReaderSize(bytes.NewReader(block), len(block)))
	header, err := r.ReadMIMEHeader()
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("mime: parsing headers: %w", err)
	}
	return header, body, nil
}

// normalizeCRLF replaces every lone LF with CRLF. Input that has none, the
// common case, is returned as is.
func normalizeCRLF(raw []byte) []byte {
	var out []byte
	rest := raw
	for {
		line, after, found := bytes.Cut(rest, []byte("\n"))
		if !found {
			break
		}
		lone := len(line) == 0 || line[len(line)-1] != '\r'
		if lone && out == nil {
			// The first lone LF: copy everything before it.
			out = make([]byte, 0, len(raw)+len(raw)/20)
			out = append(out, raw[:len(raw)-len(rest)]...)
		}
		if out != nil {
			out = append(out, line...)
			if lone {
				out = append(out, '\r')
			}
			out = append(out, '\n')
		}
		rest = after
	}
	if out == nil {
		return raw
	}
	return append(out, rest...)
}

// splitMultipart splits a multipart body into its raw part chunks: the
// lines between one delimiter line and the next, without the CRLF that
// precedes the delimiter. A delimiter line is "--boundary" or
// "--boundary--" at the start of a line, optionally followed by spaces or
// tabs. Chunks are capacity-clipped sub-slices of body.
func splitMultipart(body []byte, boundary string) ([][]byte, error) {
	closing := []byte("--" + boundary + "--")
	delim := closing[:len(closing)-2]
	var chunks [][]byte
	start := -1 // offset of the current part's first line; -1 outside a part
	for pos := 0; pos < len(body); {
		i := bytes.Index(body[pos:], delim)
		if i < 0 {
			break
		}
		i += pos
		line, next := body[i:], len(body)+1
		if j := bytes.Index(line, []byte("\r\n")); j >= 0 {
			line, next = line[:j], i+j+2
		}
		pos = next
		if i > 0 && (i < 2 || body[i-2] != '\r' || body[i-1] != '\n') {
			continue // not at the start of a line
		}
		trimmed := bytes.TrimRight(line, " \t")
		isDelim := bytes.Equal(trimmed, delim)
		if !isDelim && !bytes.Equal(trimmed, closing) {
			continue
		}
		if start >= 0 {
			chunks = append(chunks, partChunk(body, start, i))
		}
		if !isDelim {
			start = -1
			break
		}
		start = next
	}
	if start >= 0 {
		// Tolerate a missing closing delimiter (seen in real phishing mail).
		chunks = append(chunks, partChunk(body, start, len(body)+2))
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("mime: no parts found for boundary %q", boundary)
	}
	return chunks, nil
}

// partChunk returns the part whose first line starts at start and whose
// last line ends two bytes (its CRLF) before end: nil when the part has no
// lines.
func partChunk(body []byte, start, end int) []byte {
	if end-2 < start {
		return nil
	}
	return body[start : end-2 : end-2]
}

// decodeTransfer decodes a Content-Transfer-Encoding.
func decodeTransfer(body []byte, encoding string) ([]byte, error) {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "", "7bit", "8bit", "binary":
		return body, nil
	case "base64":
		// encoding/base64 skips CR and LF itself, so a body is decoded in
		// place first. The decoder rejects spaces and tabs: on failure the
		// body is decoded again with all whitespace stripped, which also
		// reports an error offset that counts base64 characters only.
		out := make([]byte, base64.StdEncoding.DecodedLen(len(body)))
		n, err := base64.StdEncoding.Decode(out, body)
		if err != nil {
			n, err = base64.StdEncoding.Decode(out, removeWhitespace(body))
		}
		if err != nil {
			return nil, fmt.Errorf("mime: decoding base64 body: %w", err)
		}
		if n > len(out) {
			n = len(out)
		}
		return out[:n], nil
	case "quoted-printable":
		// Decoding never lengthens the text, so sizing the buffer for the
		// body plus ReadFrom's minimum read leaves it one allocation.
		var out bytes.Buffer
		out.Grow(len(body) + bytes.MinRead)
		if _, err := out.ReadFrom(quotedprintable.NewReader(bytes.NewReader(body))); err != nil {
			return nil, fmt.Errorf("mime: decoding quoted-printable body: %w", err)
		}
		return out.Bytes(), nil
	default:
		return nil, fmt.Errorf("mime: unsupported transfer encoding %q", encoding)
	}
}

func removeWhitespace(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		switch c {
		case '\r', '\n', ' ', '\t':
		default:
			out = append(out, c)
		}
	}
	return out
}

// Walk performs a depth-first traversal of the part tree, calling fn on
// every part including the root. Returning a non-nil error stops the walk.
func Walk(root *Part, fn func(*Part) error) error {
	if err := fn(root); err != nil {
		return err
	}
	for _, c := range root.Children {
		if err := Walk(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// Leaves returns all leaf parts (those without children) in document order.
func Leaves(root *Part) []*Part {
	var out []*Part
	_ = Walk(root, func(p *Part) error {
		if len(p.Children) == 0 {
			out = append(out, p)
		}
		return nil
	})
	return out
}

// Subject returns the message subject of a root part.
func (p *Part) Subject() string {
	return p.Header.Get("Subject")
}

// From returns the From header of a root part.
func (p *Part) From() string {
	return p.Header.Get("From")
}

// AuthResults reports the SPF/DKIM/DMARC verdicts recorded in the
// Authentication-Results header. The paper notes that every malicious
// message in the corpus passed all three — they come from legitimate or
// compromised infrastructure, not spoofed senders.
type AuthResults struct {
	SPF   string
	DKIM  string
	DMARC string
}

// ParseAuthResults extracts the three verdicts from an
// Authentication-Results header value such as
// "mx.example.com; spf=pass ...; dkim=pass ...; dmarc=pass ...".
func ParseAuthResults(value string) AuthResults {
	var out AuthResults
	for _, field := range strings.Split(value, ";") {
		field = strings.TrimSpace(field)
		for _, mech := range []struct {
			prefix string
			dst    *string
		}{
			{"spf=", &out.SPF},
			{"dkim=", &out.DKIM},
			{"dmarc=", &out.DMARC},
		} {
			if strings.HasPrefix(strings.ToLower(field), mech.prefix) {
				rest := field[len(mech.prefix):]
				if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
					rest = rest[:sp]
				}
				*mech.dst = strings.ToLower(rest)
			}
		}
	}
	return out
}

// PassesAuth reports whether all three mechanisms read "pass".
func (a AuthResults) PassesAuth() bool {
	return a.SPF == "pass" && a.DKIM == "pass" && a.DMARC == "pass"
}
