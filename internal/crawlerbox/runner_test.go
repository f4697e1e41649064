package crawlerbox_test

// The corpus-level determinism and cancellation tests run the pipeline
// through ingest.Service in batch mode — the repository's one analysis
// runner — so they live in an external test package: ingest imports
// crawlerbox, never the other way round.

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/resilience"
	"crawlerbox/internal/tracestore"
)

// corpusPipeline generates a fresh tenth-scale world for seed and its
// pipeline, with the observer and resilience policy wired in when non-nil.
// Each call builds its own world: analyses mutate world state (harvested
// credentials, issued challenge tokens), so runs under comparison must not
// share one.
func corpusPipeline(t *testing.T, seed int64, o *obs.Observer, policy *resilience.Policy) (*dataset.Corpus, *crawlerbox.Pipeline) {
	t.Helper()
	c, err := dataset.Generate(dataset.Config{Seed: seed, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := crawlerbox.New(c.Net, c.Registry)
	pipe.Resilience = policy
	if o != nil {
		pipe.Obs = o
		c.Net.Metrics = o.Metrics
	}
	brands := make([]string, 0, len(c.BrandURLs))
	for b := range c.BrandURLs {
		brands = append(brands, b)
	}
	sort.Strings(brands)
	for _, b := range brands {
		if err := pipe.AddReference(context.Background(), b, c.BrandURLs[b]); err != nil {
			t.Fatal(err)
		}
	}
	return c, pipe
}

// corpusSpecs converts the first n corpus messages (all when n <= 0) into
// specs the way report.Analyze does: sequential IDs, analyzed two hours
// after delivery.
func corpusSpecs(c *dataset.Corpus, n int) []ingest.Spec {
	msgs := c.Messages
	if n > 0 && len(msgs) > n {
		msgs = msgs[:n]
	}
	specs := make([]ingest.Spec, len(msgs))
	for i, m := range msgs {
		specs[i] = ingest.Spec{Raw: m.Raw, ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour)}
	}
	return specs
}

// batchRun analyzes specs (IDs 1..len) through an ingest.Service in batch
// mode — no journal, no keyer — with the workers running under runCtx, and
// returns every verdict and analysis by message index. It fails the test
// unless each message reaches the sink exactly once.
func batchRun(t *testing.T, runCtx context.Context, pipe *crawlerbox.Pipeline, specs []ingest.Spec, workers int) ([]tracestore.Verdict, []*crawlerbox.MessageAnalysis) {
	t.Helper()
	verdicts := make([]tracestore.Verdict, len(specs))
	analyses := make([]*crawlerbox.MessageAnalysis, len(specs))
	var mu sync.Mutex
	emitted := make([]int, len(specs))
	svc := ingest.NewService(pipe, nil, nil, ingest.WithWorkers(workers),
		ingest.WithSink(func(_ int, e ingest.Emitted, ma *crawlerbox.MessageAnalysis) {
			i := e.ID - 1
			mu.Lock()
			emitted[i]++
			mu.Unlock()
			verdicts[i], analyses[i] = e.Verdict, ma
		}))
	svc.Start(runCtx)
	for _, s := range specs {
		if err := svc.Submit(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, n := range emitted {
		if n != 1 {
			t.Fatalf("workers=%d message %d emitted %d times, want 1", workers, i+1, n)
		}
	}
	return verdicts, analyses
}

// completedRun is batchRun on a live context, failing the test on any
// analysis error.
func completedRun(t *testing.T, pipe *crawlerbox.Pipeline, specs []ingest.Spec, workers int) []*crawlerbox.MessageAnalysis {
	t.Helper()
	verdicts, analyses := batchRun(t, context.Background(), pipe, specs, workers)
	for i, ma := range analyses {
		if ma == nil {
			t.Fatalf("workers=%d message %d: %s", workers, i+1, verdicts[i].Err)
		}
	}
	return analyses
}

// analysisSummary holds every analysis field that feeds the report
// aggregates. Turnstile token values and allocated client IPs legitimately
// interleave between concurrent analyses (they never reach any aggregate),
// so the determinism contract is stated over this projection.
type analysisSummary struct {
	Outcome       crawlerbox.Outcome
	ErrorKind     crawlerbox.ErrorKind
	SpearPhish    bool
	Brand         string
	HotLoadsRef   bool
	Cloaks        crawlerbox.CloakCensus
	AnalyzedAt    time.Time
	URLs          int
	Visits        int
	LandingHost   string
	LandingReg    string
	LandingTLD    string
	DNS30DayTotal int
	DNSMaxDaily   int
}

func summarize(ma *crawlerbox.MessageAnalysis) analysisSummary {
	s := analysisSummary{
		Outcome:     ma.Outcome,
		ErrorKind:   ma.ErrorKind,
		SpearPhish:  ma.SpearPhish,
		Brand:       ma.Brand,
		HotLoadsRef: ma.HotLoadsRef,
		Cloaks:      ma.Cloaks,
		AnalyzedAt:  ma.AnalyzedAt,
		URLs:        len(ma.Parse.URLs),
		Visits:      len(ma.Visits),
	}
	if ma.Landing != nil {
		s.LandingHost = ma.Landing.Host
		s.LandingReg = ma.Landing.Registrable
		s.LandingTLD = ma.Landing.TLD
		s.DNS30DayTotal = ma.Landing.DNS30DayTotal
		s.DNSMaxDaily = ma.Landing.DNSMaxDaily
	}
	return s
}

// corpusSummaries analyzes the first 120 messages of a fresh seed-7 corpus
// with the given worker count.
func corpusSummaries(t *testing.T, workers int) []analysisSummary {
	t.Helper()
	c, pipe := corpusPipeline(t, 7, nil, nil)
	analyses := completedRun(t, pipe, corpusSpecs(c, 120), workers)
	out := make([]analysisSummary, len(analyses))
	for i, ma := range analyses {
		out[i] = summarize(ma)
	}
	return out
}

// TestAnalyzeCorpusDeterministicAcrossWorkers is the runner's race test:
// the same corpus slice analyzed with workers=1 and workers=8 must produce
// identical per-message results, and the whole test must pass under -race.
func TestAnalyzeCorpusDeterministicAcrossWorkers(t *testing.T) {
	serial := corpusSummaries(t, 1)
	parallel := corpusSummaries(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	var diffs int
	for i := range serial {
		if serial[i] != parallel[i] {
			diffs++
			if diffs <= 3 {
				t.Errorf("message %d diverges:\n  workers=1: %+v\n  workers=8: %+v",
					i, serial[i], parallel[i])
			}
		}
	}
	if diffs > 3 {
		t.Errorf("... and %d more divergent messages", diffs-3)
	}
}

// cancelledRun submits the first n seed-7 messages to a service whose
// workers run under an already-cancelled context, and checks that every
// message still emits exactly once, as a failed verdict carrying the
// context error and no analysis.
func cancelledRun(t *testing.T, o *obs.Observer, n int) {
	t.Helper()
	c, pipe := corpusPipeline(t, 7, o, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	verdicts, analyses := batchRun(t, ctx, pipe, corpusSpecs(c, n), 2)
	for i, v := range verdicts {
		if v.Outcome != tracestore.OutcomeFailed || v.Err != context.Canceled.Error() {
			t.Errorf("message %d: verdict %s err=%q, want %s err=%q",
				i+1, v.Outcome, v.Err, tracestore.OutcomeFailed, context.Canceled.Error())
		}
		if analyses[i] != nil {
			t.Errorf("message %d: analysis produced despite cancellation", i+1)
		}
	}
}

func TestAnalyzeCorpusCancellation(t *testing.T) {
	cancelledRun(t, nil, 2)
}

// TestCorpusCancellationObserved pins cancellation with observability on:
// admitted specs whose analysis never started still emit a failed verdict
// with the context error, and the observer records no trace and no
// message metric for them.
func TestCorpusCancellationObserved(t *testing.T) {
	o := obs.New()
	cancelledRun(t, o, 3)
	if n := len(o.Traces()); n != 0 {
		t.Errorf("cancelled run collected %d traces, want 0", n)
	}
	var prom bytes.Buffer
	if err := o.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(prom.Bytes(), []byte("crawlerbox_messages_total")) {
		t.Errorf("cancelled run counted analyzed messages:\n%s", prom.String())
	}
}

// observedCorpusDumps runs the corpus through the runner with an Observer
// wired in and returns the two exports (JSONL trace dump, Prometheus
// metrics dump) plus the per-outcome message counts: the first 120 seed-7
// messages clean, or every seed-42 message under the default 10% fault
// policy.
func observedCorpusDumps(t *testing.T, workers int, faulted bool) (jsonl, prom []byte, outcomes map[crawlerbox.Outcome]int) {
	t.Helper()
	o := obs.New()
	seed, n, policy := int64(7), 120, (*resilience.Policy)(nil)
	if faulted {
		seed, n, policy = 42, 0, resilience.DefaultPolicy()
	}
	c, pipe := corpusPipeline(t, seed, o, policy)
	outcomes = map[crawlerbox.Outcome]int{}
	for _, ma := range completedRun(t, pipe, corpusSpecs(c, n), workers) {
		outcomes[ma.Outcome]++
	}
	var tb, mb bytes.Buffer
	if err := o.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics.WriteProm(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes(), outcomes
}

// TestObservedCorpusDeterministicAcrossWorkers is the byte-level
// determinism test: the JSONL trace dump and the Prometheus metrics dump
// must be byte-identical for workers=1 and workers=8 (and clean under
// -race). Span timelines read each analysis's private clock fork and every
// metric write is commutative, so no schedule can perturb either export.
func TestObservedCorpusDeterministicAcrossWorkers(t *testing.T) {
	jsonl1, prom1, _ := observedCorpusDumps(t, 1, false)
	jsonl8, prom8, _ := observedCorpusDumps(t, 8, false)
	if !bytes.Equal(jsonl1, jsonl8) {
		t.Errorf("trace JSONL diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(jsonl1), len(jsonl8))
		reportFirstDiffLine(t, jsonl1, jsonl8)
	}
	if !bytes.Equal(prom1, prom8) {
		t.Errorf("metrics dump diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(prom1), len(prom8))
		reportFirstDiffLine(t, prom1, prom8)
	}
	if len(jsonl1) == 0 || len(prom1) == 0 {
		t.Error("observed run produced empty exports")
	}
}

// TestFaultedCorpusDeterministicAcrossWorkers is the resilience acceptance
// test: with seeded faults injected at the default 10% rate, the corpus run
// must (a) complete without hard errors, (b) recover at least one operation
// through retries and degrade at least one message to OutcomePartial, and
// (c) produce byte-identical trace and metrics output and identical outcome
// counts for workers=1 and workers=8 (and stay clean under -race) — fault
// draws, jitter, burst positions, and breaker states are all per-message
// state keyed by the message seed, so no schedule can perturb them.
func TestFaultedCorpusDeterministicAcrossWorkers(t *testing.T) {
	jsonl1, prom1, out1 := observedCorpusDumps(t, 1, true)
	jsonl8, prom8, out8 := observedCorpusDumps(t, 8, true)

	if !bytes.Equal(jsonl1, jsonl8) {
		t.Errorf("fault-injected trace JSONL diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(jsonl1), len(jsonl8))
		reportFirstDiffLine(t, jsonl1, jsonl8)
	}
	if !bytes.Equal(prom1, prom8) {
		t.Errorf("fault-injected metrics dump diverges between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(prom1), len(prom8))
		reportFirstDiffLine(t, prom1, prom8)
	}
	for o, n := range out1 {
		if out8[o] != n {
			t.Errorf("outcome %v: %d messages at workers=1, %d at workers=8", o, n, out8[o])
		}
	}

	if out1[crawlerbox.OutcomePartial] == 0 {
		t.Error("no message degraded to partial-evidence under 10% faults")
	}
	prom := string(prom1)
	for _, metric := range []string{
		"crawlerbox_retries_total",
		"crawlerbox_retry_recovered_total",
		"crawlerbox_retry_exhausted_total",
		"crawlerbox_breaker_open_total",
		"webnet_faults_injected_total",
	} {
		if !metricPositive(prom, metric) {
			t.Errorf("metric %s absent or zero in fault-injected run", metric)
		}
	}
	if !bytes.Contains(jsonl1, []byte(`"kind":"retry"`)) {
		t.Error("trace contains no retry spans")
	}
}

// metricPositive reports whether the Prometheus dump has a sample of name
// (any label set) with a value other than a bare zero.
func metricPositive(prom, name string) bool {
	for _, line := range bytes.Split([]byte(prom), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(name)) {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) == 2 && !bytes.Equal(fields[1], []byte("0")) {
			return true
		}
	}
	return false
}

// reportFirstDiffLine logs the first differing line of two dumps.
func reportFirstDiffLine(t *testing.T, a, b []byte) {
	t.Helper()
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Logf("first diff at line %d:\n  workers=1: %s\n  workers=8: %s", i+1, la[i], lb[i])
			return
		}
	}
	t.Logf("dumps diverge in length: %d vs %d lines", len(la), len(lb))
}
