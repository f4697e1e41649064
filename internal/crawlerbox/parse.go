// Package crawlerbox implements the paper's analysis pipeline (Figure 1):
// recursive message parsing that extracts web resources from every MIME
// part (text, HTML, images with OCR and QR codes, PDFs, ZIP archives,
// nested EMLs), an evasive crawling phase built on a pluggable crawler
// (NotABot by default — the component is modular by design), screenshot
// classification against the protected brands' login pages via fuzzy
// hashing, a cloaking-technique census over the loaded scripts and traffic,
// and WHOIS / certificate / passive-DNS enrichment.
package crawlerbox

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"unicode/utf8"

	"crawlerbox/internal/imaging"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/pdfx"
	"crawlerbox/internal/qrcode"
	"crawlerbox/internal/urlx"
)

// URLSource identifies where in the message a URL was found.
type URLSource string

// URL sources.
const (
	SourceText     URLSource = "text"
	SourceHTML     URLSource = "html"
	SourceImageQR  URLSource = "image-qr"
	SourceImageOCR URLSource = "image-ocr"
	SourcePDFLink  URLSource = "pdf-link"
	SourcePDFText  URLSource = "pdf-text"
	SourcePDFQR    URLSource = "pdf-image-qr"
	SourceZIP      URLSource = "zip"
	SourceEML      URLSource = "eml"
)

// ExtractedURL is one URL recovered during parsing.
type ExtractedURL struct {
	URL    string
	Source URLSource
	// LenientOnly marks URLs that only a lenient extractor recovers —
	// the faulty-QR evasion signature.
	LenientOnly bool
	// Rewritten marks URLs recovered by unwrapping a gateway rewrite
	// (Safe Links / Proofpoint-style); URL holds the canonical form.
	Rewritten bool
}

// HTMLAttachmentFile is an HTML file attached separately from the body.
type HTMLAttachmentFile struct {
	Filename string
	Content  string
}

// ParseResult is the outcome of the parsing phase for one message.
type ParseResult struct {
	Subject string
	From    string
	Auth    mime.AuthResults
	URLs    []ExtractedURL
	// HTMLAttachments are loaded dynamically during the crawl phase.
	HTMLAttachments []HTMLAttachmentFile
	// ZIPWithHTA marks archives containing HTA droppers (never executed).
	ZIPWithHTA bool
	// HTAURLs are URLs statically recovered from HTA droppers.
	HTAURLs []string
	// FaultyQR marks QR payloads that defeat strict whole-payload parsing.
	FaultyQR bool
	// QRCount counts decoded QR codes.
	QRCount int
	// NoisePadded marks bodies with the line-break + random-text padding.
	NoisePadded bool
	// OTPCodes are access codes found in the body text (used to drive
	// OTP-gated pages during the crawl).
	OTPCodes []string
	// RewrittenURLs counts gateway-rewritten links that were decoded back
	// to their canonical URL during extraction.
	RewrittenURLs int
}

// ParseMessage runs the full recursive parsing phase over a raw message.
func (p *Pipeline) ParseMessage(raw []byte) (*ParseResult, error) {
	root, err := mime.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("crawlerbox: parsing message: %w", err)
	}
	res := &ParseResult{
		Subject: root.Subject(),
		From:    root.From(),
		Auth:    mime.ParseAuthResults(root.Header.Get("Authentication-Results")),
	}
	seen := map[string]bool{}
	err = mime.Walk(root, func(part *mime.Part) error {
		p.parsePart(part, res, seen)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (p *Pipeline) parsePart(part *mime.Part, res *ParseResult, seen map[string]bool) {
	switch {
	case part.ContentType == "text/plain":
		text := string(part.Body)
		addURLs(res, seen, extractFromText(text), SourceText)
		if detectNoisePadding(text) {
			res.NoisePadded = true
		}
		res.OTPCodes = append(res.OTPCodes, findOTPCodes(text)...)
	case part.ContentType == "text/html":
		if part.Disposition == "attachment" {
			res.HTMLAttachments = append(res.HTMLAttachments, HTMLAttachmentFile{
				Filename: part.Filename, Content: string(part.Body),
			})
			return
		}
		html := string(part.Body)
		addURLs(res, seen, extractFromHTML(html), SourceHTML)
		res.OTPCodes = append(res.OTPCodes, findOTPCodes(html)...)
	case strings.HasPrefix(part.ContentType, "image/"):
		p.parseImage(part.Body, res, seen, SourceImageQR, SourceImageOCR)
	case part.ContentType == "application/pdf":
		p.parsePDF(part.Body, res, seen)
	case part.ContentType == "application/zip":
		p.parseZIP(part.Body, res, seen)
	case part.ContentType == "application/octet-stream":
		p.sniffOctetStream(part.Body, res, seen)
	}
	// message/rfc822 children are visited by the walker itself; their
	// parts flow through the same dispatch above.
}

// sniffOctetStream classifies opaque binaries by magic number, the way the
// original pipeline dispatches Octet Stream parts.
func (p *Pipeline) sniffOctetStream(body []byte, res *ParseResult, seen map[string]bool) {
	switch {
	case imaging.IsCBI(body):
		p.parseImage(body, res, seen, SourceImageQR, SourceImageOCR)
	case bytes.HasPrefix(body, []byte("%PDF")):
		p.parsePDF(body, res, seen)
	case bytes.HasPrefix(body, []byte("PK\x03\x04")):
		p.parseZIP(body, res, seen)
	}
}

// parseImage scans a raster for QR codes and for visible URL text.
func (p *Pipeline) parseImage(body []byte, res *ParseResult, seen map[string]bool, qrSrc, ocrSrc URLSource) {
	img, err := imaging.DecodeCBI(body)
	if err != nil {
		return
	}
	// QR pass.
	if dec, err := qrcode.DecodeImage(img); err == nil {
		res.QRCount++
		_, strictOK := urlx.ExtractStrictWhole(dec.Payload)
		for _, e := range urlx.ExtractLenient(dec.Payload) {
			lenientOnly := !strictOK
			if lenientOnly {
				res.FaultyQR = true
			}
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: qrSrc, LenientOnly: lenientOnly})
		}
		return
	}
	// OCR pass.
	for _, line := range imaging.OCR(img, p.ocrMinScore()) {
		lower := strings.ToLower(line)
		for _, e := range urlx.ExtractLenient(lower) {
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: ocrSrc})
		}
	}
}

// parsePDF extracts annotation URIs, text URLs, and QR codes in embedded
// images.
func (p *Pipeline) parsePDF(body []byte, res *ParseResult, seen map[string]bool) {
	parsed, err := pdfx.Parse(body)
	if err != nil {
		return
	}
	for _, uri := range parsed.LinkURIs {
		for _, e := range urlx.ExtractLenient(uri) {
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourcePDFLink})
		}
	}
	for _, line := range parsed.TextLines {
		for _, e := range urlx.ExtractStrict(line) {
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourcePDFText})
		}
		res.OTPCodes = append(res.OTPCodes, findOTPCodes(line)...)
	}
	for _, img := range parsed.Images {
		if dec, err := qrcode.DecodeImage(img); err == nil {
			res.QRCount++
			_, strictOK := urlx.ExtractStrictWhole(dec.Payload)
			for _, e := range urlx.ExtractLenient(dec.Payload) {
				lenientOnly := !strictOK
				if lenientOnly {
					res.FaultyQR = true
				}
				addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourcePDFQR, LenientOnly: lenientOnly})
			}
		}
	}
}

// parseZIP unpacks an archive and routes each member through the
// appropriate analyzer. HTA members are never executed; their script
// sources are scanned statically.
func (p *Pipeline) parseZIP(body []byte, res *ParseResult, seen map[string]bool) {
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return
	}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			continue
		}
		content, err := io.ReadAll(io.LimitReader(rc, 4<<20))
		_ = rc.Close()
		if err != nil {
			continue
		}
		name := strings.ToLower(f.Name)
		switch {
		case strings.HasSuffix(name, ".hta"):
			res.ZIPWithHTA = true
			for _, e := range urlx.ExtractLenient(string(content)) {
				res.HTAURLs = append(res.HTAURLs, e.URL)
				addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourceZIP})
			}
		case strings.HasSuffix(name, ".html") || strings.HasSuffix(name, ".htm"):
			res.HTMLAttachments = append(res.HTMLAttachments, HTMLAttachmentFile{
				Filename: f.Name, Content: string(content),
			})
		case strings.HasSuffix(name, ".txt"):
			addURLs(res, seen, extractFromText(string(content)), SourceZIP)
		case strings.HasSuffix(name, ".pdf") || bytes.HasPrefix(content, []byte("%PDF")):
			p.parsePDF(content, res, seen)
		case imaging.IsCBI(content):
			p.parseImage(content, res, seen, SourceImageQR, SourceImageOCR)
		case strings.HasSuffix(name, ".eml"):
			if inner, err := p.ParseMessage(content); err == nil {
				mergeParse(res, seen, inner)
			}
		}
	}
}

func mergeParse(dst *ParseResult, seen map[string]bool, src *ParseResult) {
	for _, u := range src.URLs {
		addURL(dst, seen, u)
	}
	dst.HTMLAttachments = append(dst.HTMLAttachments, src.HTMLAttachments...)
	dst.ZIPWithHTA = dst.ZIPWithHTA || src.ZIPWithHTA
	dst.HTAURLs = append(dst.HTAURLs, src.HTAURLs...)
	dst.FaultyQR = dst.FaultyQR || src.FaultyQR
	dst.QRCount += src.QRCount
	dst.NoisePadded = dst.NoisePadded || src.NoisePadded
	dst.OTPCodes = append(dst.OTPCodes, src.OTPCodes...)
	dst.RewrittenURLs += src.RewrittenURLs
}

func extractFromText(text string) []string {
	var out []string
	for _, e := range urlx.ExtractStrict(text) {
		out = append(out, e.URL)
	}
	return out
}

func extractFromHTML(html string) []string {
	var out []string
	// Static href/src extraction; scripts run later in the crawl phase.
	doc := parseHTML(html)
	for _, link := range doc {
		out = append(out, link)
	}
	return out
}

func addURLs(res *ParseResult, seen map[string]bool, urls []string, src URLSource) {
	for _, u := range urls {
		addURL(res, seen, ExtractedURL{URL: u, Source: src})
	}
}

// addURL canonicalizes and dedups one extracted URL. Gateway rewrites
// (Safe Links / Proofpoint URL Defense wrappers) are decoded here, before
// the dedup map, so a wrapped and an unwrapped report of the same landing
// URL collapse to one entry — and downstream consumers (the crawl stage,
// the ingest verdict cache) only ever see canonical URLs.
func addURL(res *ParseResult, seen map[string]bool, u ExtractedURL) {
	if u.URL == "" {
		return
	}
	if decoded, layers := urlx.DecodeRewritten(u.URL); layers > 0 {
		u.URL = decoded
		u.Rewritten = true
		res.RewrittenURLs++
	}
	if seen[u.URL] {
		return
	}
	seen[u.URL] = true
	res.URLs = append(res.URLs, u)
}

// detectNoisePadding spots the Section V-C1 signature: a long run of line
// breaks followed by filler text.
func detectNoisePadding(text string) bool {
	breaks := 0
	maxRun := 0
	for _, r := range text {
		if r == '\n' {
			breaks++
			if breaks > maxRun {
				maxRun = breaks
			}
		} else if r != '\r' && r != ' ' && r != '\t' {
			breaks = 0
		}
	}
	return maxRun >= 20
}

var _otpRe = regexp.MustCompile(`(?i)(?:access code|one.time|security code|otp)[^0-9]{0,40}([0-9]{6})`)

// findOTPCodes recovers 6-digit access codes mentioned near OTP phrasing.
func findOTPCodes(text string) []string {
	if !mayHoldOTP(text) {
		return nil
	}
	var out []string
	for _, m := range _otpRe.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// mayHoldOTP is an exact, allocation-free prefilter for _otpRe: in ASCII
// text a match needs one of the anchors (ASCII case-insensitively) and a
// run of six digits. Non-ASCII text always goes to the regexp, because (?i)
// also folds non-ASCII runes into the anchors (U+017F into "s", U+212A into
// "k") and "." matches a multi-byte rune.
func mayHoldOTP(text string) bool {
	run, digits := 0, false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			return true
		}
		if c >= '0' && c <= '9' {
			run++
			digits = digits || run >= 6
		} else {
			run = 0
		}
	}
	if !digits {
		return false
	}
	for i := 0; i < len(text); i++ {
		switch text[i] | 0x20 {
		case 'o':
			if hasPrefixFold(text[i:], "otp") ||
				(hasPrefixFold(text[i:], "one") && len(text) >= i+8 && text[i+3] != '\n' && hasPrefixFold(text[i+4:], "time")) {
				return true
			}
		case 'a':
			if hasPrefixFold(text[i:], "access code") {
				return true
			}
		case 's':
			if hasPrefixFold(text[i:], "security code") {
				return true
			}
		}
	}
	return false
}

// hasPrefixFold reports whether s starts with prefix, ignoring case. Its
// callers pass ASCII text, where EqualFold is plain ASCII case folding.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}
