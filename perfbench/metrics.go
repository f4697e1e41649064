package main

import (
	"math"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured untraced
// on every workload. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "msg/s"},
	{"cpu_ms_per_msg", "ms"},
	{"alloc_kb_per_msg", "KiB"},
	{"retained_mb", "MiB"},
}

// stageNames are the crawlerbox.DefaultStages() entries in chain order.
var stageNames = []string{"parse", "crawl", "interact", "classify", "census", "enrich"}

// cpuLayers are the CPU-profile buckets, one per repository layer.
var cpuLayers = []string{
	"mime", "qrcode", "pdfx", "imaging", "htmlx", "minijs", "browser", "webnet", "sites",
	"urlx", "crawlerbox", "ingest", "evstore", "tracestore", "obs", "report", "dataset", "gc", "other",
}

// triageQueries are the canned analyst queries of the triage phase.
var triageQueries = []struct{ name, q string }{
	{"phish", "outcome=active-phishing limit=50"},
	{"network", "outcome=error-page errkind=network limit=50"},
	{"nonadj", "adjudicable=false limit=50"},
}

// perLayer lists the traced run's metrics in a fixed order. The serve-only
// user-facing figures (latency, capacity, restart) sit here too, as an
// end-to-end metric must be measured on every workload, and so does the
// analyst's triage time, whose run-to-run spread exceeds any bound.
func perLayer() []metricDef {
	defs := []metricDef{
		{"triage_query_ms", "ms"},
		{"verdict_p50_ms", "ms"},
		{"verdict_p99_ms", "ms"},
		{"max_rate_msgs_per_s", "msg/s"},
		{"resume_ms", "ms"},
		{"failed_ratio", "ratio"},
		{"ingest.key_us_p50", "us"},
		{"ingest.key_us_p99", "us"},
		{"ingest.key_busy_share", "ratio"},
		{"ingest.submit_us_p50", "us"},
		{"ingest.submit_us_p99", "us"},
		{"ingest.submit_self_ms", "ms"},
		{"ingest.queue_wait_ms_p50", "ms"},
		{"ingest.queue_wait_ms_p99", "ms"},
		{"ingest.analyze_ms_p50", "ms"},
		{"ingest.analyze_ms_p99", "ms"},
		{"ingest.cache_hit_ratio", "ratio"},
		{"ingest.keyless_ratio", "ratio"},
		{"ingest.shed_count", "count"},
		{"ingest.pending_max", "count"},
		{"ingest.journal_bytes_per_msg", "B"},
		{"ingest.readlog_ms", "ms"},
		{"ingest.resume_drain_ms", "ms"},
	}
	for _, s := range stageNames {
		defs = append(defs,
			metricDef{"stage." + s + ".busy_ms", "ms"},
			metricDef{"stage." + s + ".p50_us", "us"},
			metricDef{"stage." + s + ".p99_us", "us"},
			metricDef{"stage." + s + ".runs", "count"})
	}
	defs = append(defs,
		metricDef{"stage.parse.halt_ratio", "ratio"},
		metricDef{"crawlerbox.analyze_self_ms", "ms"},
		metricDef{"crawl.visits_per_msg", "count"},
		metricDef{"crawl.requests_per_visit", "count"},
		metricDef{"crawl.scripts_per_visit", "count"},
		metricDef{"crawl.degraded_share", "ratio"},
		metricDef{"webnet.requests_total", "count"},
		metricDef{"minijs.repeat_source_share", "ratio"},
		metricDef{"report.analyze_s", "s"},
		metricDef{"report.census_ms", "ms"},
		metricDef{"report.render_ms", "ms"},
		metricDef{"evstore.evidence_bytes_per_msg", "B"},
		metricDef{"tracestore.segment_bytes_per_msg", "B"},
		metricDef{"tracestore.open_ms", "ms"},
	)
	for _, q := range triageQueries {
		defs = append(defs, metricDef{"tracestore.query_us." + q.name, "us"})
	}
	defs = append(defs,
		metricDef{"tracestore.checklist_us", "us"},
		metricDef{"tracestore.readjudicate_us", "us"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l + "_share", "ratio"})
	}
	return append(defs,
		metricDef{"trace.overhead_share", "ratio"},
		metricDef{"unattributed_share", "ratio"},
		metricDef{"gen.late_ms_p99", "ms"},
	)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func secs(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durs converts durations to float64s in the given unit function.
func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
