package crawlerbox

import (
	"reflect"
	"strings"
	"testing"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/pdfx"
)

// referenceOTPCodes is findOTPCodes without its prefilter: the bare
// regexp scan.
func referenceOTPCodes(text string) []string {
	var out []string
	for _, m := range _otpRe.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// FuzzOTPCodes pins that the allocation-free prefilter in findOTPCodes
// never drops a match the regexp finds.
func FuzzOTPCodes(f *testing.F) {
	for _, s := range []string{
		"",
		"Your OTP: 123456",
		"Access Code 654321 expires soon",
		"SECURITY code is 111111",
		"use this one-time code: 424242",
		"ONE TIME passcode 000000 and otp 999999",
		"one\ntime 123456",        // "." does not match a newline: no match
		"one time code 12345",     // five digits: no match
		"acce\u017fs code 123456", // U+017F folds to "s" under (?i)
		"tOtp 987654",             // anchor inside a word still matches
		"\u212a otp 123456",       // Kelvin sign: non-ASCII text takes the regexp
		"oNe\u00e9time 123456",    // "." matches a two-byte rune
		strings.Repeat("\n", 30) + "security code\n" + strings.Repeat("x", 41) + "123456",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := findOTPCodes(text), referenceOTPCodes(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("findOTPCodes(%q) = %q, regexp gives %q", text, got, want)
		}
	})
}

// corpusRaws renders the raw messages of the paper corpus for seed at
// scale 0.1 (about 520 reports).
func corpusRaws(tb testing.TB, seed int64) [][]byte {
	tb.Helper()
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	var raws [][]byte
	c.Each(func(_ int, m *dataset.Message) bool {
		raws = append(raws, m.Raw)
		return true
	})
	return raws
}

// TestOTPCorpusMatchesRegexp runs findOTPCodes and the bare regexp over
// every text the parse phase scans for access codes in two generated
// corpora: text and HTML bodies and PDF text lines. With
// TestParseCorpusMatchesReference (package mime) pinning the part trees,
// it pins that ParseMessage's results are those of the reference parser.
func TestOTPCorpusMatchesRegexp(t *testing.T) {
	var texts, withCodes int
	check := func(seed int64, i int, text string) {
		texts++
		got, want := findOTPCodes(text), referenceOTPCodes(text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d message %d: findOTPCodes = %q, regexp gives %q", seed, i, got, want)
		}
		if len(got) > 0 {
			withCodes++
		}
	}
	for _, seed := range []int64{7, 42} {
		for i, raw := range corpusRaws(t, seed) {
			root, err := mime.Parse(raw)
			if err != nil {
				t.Fatalf("seed %d message %d: %v", seed, i, err)
			}
			for _, part := range mime.Leaves(root) {
				switch {
				case strings.HasPrefix(part.ContentType, "text/"):
					check(seed, i, string(part.Body))
				case part.ContentType == "application/pdf":
					if doc, err := pdfx.Parse(part.Body); err == nil {
						for _, line := range doc.TextLines {
							check(seed, i, line)
						}
					}
				}
			}
		}
	}
	if withCodes == 0 {
		t.Fatalf("no access code among %d texts: the corpus no longer exercises the scan", texts)
	}
	t.Logf("%d texts, %d with access codes", texts, withCodes)
}

var _parseResult *ParseResult

// BenchmarkParseMessage runs the full parse phase over every message of
// the seed-42 corpus (scale 0.1); ns/op and allocs/op are per message.
func BenchmarkParseMessage(b *testing.B) {
	raws := corpusRaws(b, 42)
	p := &Pipeline{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.ParseMessage(raws[i%len(raws)])
		if err != nil {
			b.Fatal(err)
		}
		_parseResult = res
	}
}

// TestParseAllocBudget holds mime.Parse and ParseMessage to a per-message
// allocation budget over the seed-42 corpus (scale 0.1). Allocation counts
// repeat exactly from run to run, unlike timings. Each budget is the count
// measured when it was set plus about 10%; the copying parser it replaced
// made 123 and 140 allocations per message here.
func TestParseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	raws := corpusRaws(t, 42)
	p := &Pipeline{}
	for _, tc := range []struct {
		name   string
		budget float64
		parse  func(raw []byte) error
	}{
		{"mime.Parse", 39, func(raw []byte) error { _, err := mime.Parse(raw); return err }},
		{"ParseMessage", 57, func(raw []byte) error { _, err := p.ParseMessage(raw); return err }},
	} {
		var parseErr error
		total := testing.AllocsPerRun(2, func() {
			for _, raw := range raws {
				if err := tc.parse(raw); err != nil {
					parseErr = err
				}
			}
		})
		if parseErr != nil {
			t.Fatalf("%s: %v", tc.name, parseErr)
		}
		perMsg := total / float64(len(raws))
		t.Logf("%s: %.1f allocs/msg (budget %.0f)", tc.name, perMsg, tc.budget)
		if perMsg > tc.budget {
			t.Errorf("%s: %.1f allocs/msg exceeds the budget of %.0f", tc.name, perMsg, tc.budget)
		}
	}
}
