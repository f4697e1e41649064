package mime_test

import (
	"reflect"
	"testing"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/mime"
)

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

// TestParseCorpusMatchesReference compares Parse with the reference parser
// on every message of two generated corpora.
func TestParseCorpusMatchesReference(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		raws := corpusRaws(t, seed)
		for i, raw := range raws {
			got, err := mime.Parse(raw)
			want, wantErr := mime.ReferenceParse(raw)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("seed %d message %d: error %v, reference %v", seed, i, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d message %d: tree differs from the reference", seed, i)
			}
		}
		t.Logf("seed %d: %d messages match", seed, len(raws))
	}
}

var _parsed *mime.Part

// BenchmarkMimeParse parses every message of the seed-42 corpus (scale
// 0.1) once per iteration; ns/op and allocs/op are per message.
func BenchmarkMimeParse(b *testing.B) {
	raws := corpusRaws(b, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := mime.Parse(raws[i%len(raws)])
		if err != nil {
			b.Fatal(err)
		}
		_parsed = p
	}
}
