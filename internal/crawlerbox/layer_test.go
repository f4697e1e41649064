package crawlerbox

import (
	"context"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/minijs"
)

// The layer fixtures come from one analysis of the seed-42 corpus (scale
// 0.1), made once per test binary.
var (
	_corpusOnce   sync.Once
	_corpusVisits [][]VisitRecord
	_corpusErr    error
)

// corpusVisits returns the visit records of every message of the seed-42
// corpus (scale 0.1), analyzed serially the way report.Analyze specs them:
// IDs by corpus index, analysis two hours after delivery. Messages whose
// analysis failed contribute no entry.
func corpusVisits(tb testing.TB) [][]VisitRecord {
	tb.Helper()
	_corpusOnce.Do(func() {
		c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
		if err != nil {
			_corpusErr = err
			return
		}
		p := New(c.Net, c.Registry)
		brands := make([]string, 0, len(c.BrandURLs))
		for b := range c.BrandURLs {
			brands = append(brands, b)
		}
		sort.Strings(brands)
		ctx := context.Background()
		for _, b := range brands {
			if _corpusErr = p.AddReference(ctx, b, c.BrandURLs[b]); _corpusErr != nil {
				return
			}
		}
		c.Each(func(i int, m *dataset.Message) bool {
			spec := MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour)}
			if ma, err := p.Analyze(ctx, spec); err == nil {
				_corpusVisits = append(_corpusVisits, ma.Visits)
			}
			return true
		})
	})
	if _corpusErr != nil {
		tb.Fatal(_corpusErr)
	}
	return _corpusVisits
}

// corpusPages parses the final markup of every corpus visit that has any:
// the landing and redirect pages the browser rendered.
func corpusPages(tb testing.TB) []*htmlx.Node {
	tb.Helper()
	var pages []*htmlx.Node
	for _, vs := range corpusVisits(tb) {
		for _, v := range vs {
			if v.Result != nil && v.Result.HTML != "" {
				pages = append(pages, htmlx.Parse(v.Result.HTML))
			}
		}
	}
	if len(pages) == 0 {
		tb.Fatal("no corpus visit carries markup")
	}
	return pages
}

var _rendered string

// BenchmarkHTMLRender serializes the corpus pages; ns/op and allocs/op
// are per page.
func BenchmarkHTMLRender(b *testing.B) {
	pages := corpusPages(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_rendered = htmlx.Render(pages[i%len(pages)])
	}
}

// corpusScripts returns the source of every script the corpus visits ran
// on their final pages and frames, repeats included, in analysis order.
func corpusScripts(tb testing.TB) []string {
	tb.Helper()
	var srcs []string
	for _, vs := range corpusVisits(tb) {
		for _, v := range vs {
			if v.Result != nil {
				srcs = append(srcs, v.Result.Scripts...)
			}
		}
	}
	if len(srcs) == 0 {
		tb.Fatal("no corpus visit ran a script")
	}
	return srcs
}

var _prog *minijs.Program

// BenchmarkMinijsParse parses the corpus scripts; ns/op and allocs/op are
// per script.
func BenchmarkMinijsParse(b *testing.B) {
	srcs := corpusScripts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_prog, _ = minijs.Parse(srcs[i%len(srcs)])
	}
}

// BenchmarkScriptRun runs the corpus scripts, each in a new interpreter
// with the browser's per-script fuel; ns/op and allocs/op are per script.
// The interpreter has no page environment, so most scripts stop with a
// ReferenceError at their first DOM access: the figures are the parse plus
// the interpreter set-up and the script's DOM-free prefix. "fresh" parses
// every script, as Eval does; "cached" parses through a minijs.Cache that
// starts empty at each pass over the corpus, as one pipeline's cache does
// over one run.
func BenchmarkScriptRun(b *testing.B) {
	srcs := corpusScripts(b)
	const fuel = 400_000
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = minijs.New(fuel).Eval(srcs[i%len(srcs)])
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		var cache *minijs.Cache
		for i := 0; i < b.N; i++ {
			if i%len(srcs) == 0 {
				cache = minijs.NewCache()
			}
			if prog, err := cache.Parse(srcs[i%len(srcs)]); err == nil {
				_ = minijs.New(fuel).Run(prog)
			}
		}
	})
}

var _encoded []byte

// BenchmarkEncodeEvidence encodes the corpus messages' visit records;
// ns/op, B/op and allocs/op are per message. "fresh" is EncodeEvidence,
// "scratch" is AppendEvidence into one reused buffer, as SpillEvidence
// does.
func BenchmarkEncodeEvidence(b *testing.B) {
	msgs := corpusVisits(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_encoded = EncodeEvidence(msgs[i%len(msgs)])
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []byte
		for i := 0; i < b.N; i++ {
			scratch = AppendEvidence(scratch[:0], msgs[i%len(msgs)])
		}
		_encoded = scratch
	})
}

// TestRenderAllocBudget holds htmlx.Render to a per-page allocation
// budget over the corpus pages. The budget is the count measured when it
// was set (14.7) plus about 10%; with a Replacer built per escape call,
// Render made 123.2 allocations per page here.
func TestRenderAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 16.0
	pages := corpusPages(t)
	total := testing.AllocsPerRun(2, func() {
		for _, n := range pages {
			_rendered = htmlx.Render(n)
		}
	})
	perPage := total / float64(len(pages))
	t.Logf("htmlx.Render: %.1f allocs/page over %d pages (budget %.0f)", perPage, len(pages), budget)
	if perPage > budget {
		t.Errorf("htmlx.Render: %.1f allocs/page exceeds the budget of %.0f", perPage, budget)
	}
}

// TestSpillAllocBudget holds SpillEvidence, through one reused scratch
// buffer, to a per-message allocation budget over the corpus messages.
// The budget is the count measured when it was set (0.50, the visit error
// texts) plus about 10%; the encoder that copied each screenshot twice
// into a payload grown from one byte made 4.29 allocations per message
// here.
func TestSpillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 0.55
	msgs := corpusVisits(t)
	store, err := evstore.Create(filepath.Join(t.TempDir(), "ev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	analyses := make([]MessageAnalysis, len(msgs))
	var scratch []byte
	var spillErr error
	total := testing.AllocsPerRun(2, func() {
		for i := range analyses {
			// SpillEvidence drops Visits; restore them for the next run.
			analyses[i].Visits = msgs[i]
			if err := SpillEvidence(store, &analyses[i], &scratch); err != nil {
				spillErr = err
			}
		}
	})
	if spillErr != nil {
		t.Fatal(spillErr)
	}
	perMsg := total / float64(len(msgs))
	t.Logf("SpillEvidence: %.2f allocs/msg over %d messages (budget %.2f)", perMsg, len(msgs), budget)
	if perMsg > budget {
		t.Errorf("SpillEvidence: %.2f allocs/msg exceeds the budget of %.2f", perMsg, budget)
	}
}
