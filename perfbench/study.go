package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/report"
)

// study reproduces the paper exactly as cmd/report runs it: the streamed
// paper-scale corpus through report.Analyze with the evidence spill and
// the triage segment, the census, all seven renders, then the canned
// triage set against the segment just written. It never touches ingest
// admission or the verdict cache, so it is the expected-no-change control
// for cache and admission work.

// studySetups is how many times each pass deploys the corpus.
const studySetups = 5

// studyPass is one pass's measurements.
type studyPass struct {
	setups   []time.Duration
	cost     loopCost
	rate     float64
	cpuMs    float64
	allocKB  float64
	retained float64
	analyze  time.Duration
	census   time.Duration
	render   time.Duration
	renders  string
	triage   *triageTimes
	prof     *cpuProfile
	metrics  []obs.Point
	requests int
	evBytes  float64
	segBytes float64
	msgs     int
}

func runStudy(ctx context.Context, b *bench) error {
	var passes []*studyPass
	var last time.Duration
	// A traced run makes pass 0 untraced and pass 1 traced: the pair gives
	// the tracing overhead and the untraced-versus-traced render comparison.
	const minPasses = 2
	for len(passes) < minPasses || (!b.traced && !b.passDone(len(passes), minPasses, last)) {
		traced := b.traced && len(passes) == 1
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		start := time.Now()
		p, err := b.studyPass(ctx, len(passes), tr)
		if err != nil {
			return err
		}
		if len(passes) > 0 {
			b.check(p.renders == passes[0].renders, "study: pass %d renders differ from pass 0", len(passes))
		}
		passes = append(passes, p)
		last = time.Since(start)
		fmt.Printf("study: pass %d: %.2fs, setup %.3fs, %.1f msg/s (steal %.3fs), %.4f cpu ms/msg, %.2f KiB/msg, retained %.2f MiB\n",
			len(passes)-1, last.Seconds(), median(durs(p.setups, secs)), p.rate, p.cost.stolen.Seconds(), p.cpuMs, p.allocKB, p.retained)
		if traced {
			if err := tr.write(spanFile(b)); err != nil {
				return err
			}
			b.studyLayers(passes[0], p)
		}
	}
	measured := passes
	if b.traced {
		measured = passes[:1]
	}
	var setups, rates, cpus, allocs, retained []float64
	for _, p := range measured {
		setups = append(setups, durs(p.setups, secs)...)
		rates = append(rates, p.rate)
		cpus = append(cpus, p.cpuMs)
		allocs = append(allocs, p.allocKB)
		retained = append(retained, p.retained)
	}
	b.set("setup_s", median(setups))
	b.set("msgs_per_s", median(rates))
	b.set("cpu_ms_per_msg", median(cpus))
	b.set("alloc_kb_per_msg", median(allocs))
	b.set("retained_mb", median(retained))
	b.set("triage_query_ms", passes[0].triage.meanSet())
	fmt.Printf("study: %d passes of %d messages\n", len(passes), passes[0].msgs)
	return nil
}

func (b *bench) studyPass(ctx context.Context, pass int, tr *tracer) (*studyPass, error) {
	p := &studyPass{}
	// The corpus deploys in milliseconds, so each pass deploys it
	// studySetups times and keeps the last; setup_s is the median.
	var c *dataset.Corpus
	for i := 0; i < studySetups; i++ {
		t0 := time.Now()
		var err error
		if c, err = dataset.Stream(dataset.Config{Seed: b.seed, Scale: scale}); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
	}
	p.msgs = c.Len()
	base := settledHeap()

	evPath := b.path(fmt.Sprintf("study-%d.evidence", pass))
	segPath := b.path(fmt.Sprintf("study-%d.tstore", pass))
	defer os.Remove(evPath)
	defer os.Remove(segPath)
	observer := obs.New()
	var prof profiler
	if tr != nil {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	p.cost = startCost()
	id := tr.begin("report.Analyze", -1, 0)
	run, err := report.Analyze(ctx, c,
		report.WithWorkers(b.workers),
		report.WithObserver(observer),
		report.WithEvidencePath(evPath),
		report.WithTraceStorePath(segPath))
	tr.end(id)
	if err != nil {
		if tr != nil {
			prof.stop()
		}
		return nil, err
	}
	p.analyze = time.Since(p.cost.start)
	t1 := time.Now()
	id = tr.begin("report.census", -1, 0)
	run.Disposition()
	tr.end(id)
	p.census = time.Since(t1)
	t2 := time.Now()
	var text strings.Builder
	for _, r := range []struct {
		name   string
		render func() string
	}{
		{"disposition", run.RenderDisposition},
		{"fig2", run.RenderFigure2},
		{"table2", run.RenderTable2},
		{"fig3", run.RenderFigure3},
		{"spear", run.RenderSpear},
		{"nontargeted", run.RenderNonTargeted},
		{"cloaks", run.RenderCloaks},
	} {
		id := tr.begin("report.render."+r.name, -1, 0)
		text.WriteString(r.render())
		tr.end(id)
	}
	p.render = time.Since(t2)
	p.rate, p.cpuMs, p.allocKB = p.cost.finish(p.msgs)
	if tr != nil {
		if p.prof, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	p.renders = text.String()
	p.retained = float64(int64(settledHeap())-int64(base)) / (1 << 20)
	p.metrics = observer.Metrics.Snapshot()
	p.requests = c.Net.TrafficLen()
	runtime.KeepAlive(run)
	runtime.KeepAlive(c)

	b.attempted += int64(p.msgs)
	b.failed += int64(run.Errors)
	b.check(run.Errors == 0, "study: %d messages failed analysis", run.Errors)
	b.check(p.msgs > 0, "study: empty corpus")
	p.evBytes = fileSize(evPath)
	p.segBytes = fileSize(segPath)
	if p.triage, err = b.triage(tr, segPath, pass == 0 || tr != nil); err != nil {
		return nil, err
	}
	return p, nil
}

// studyLayers derives the per-layer metrics of the traced pass. Stages run
// inside report.Analyze's own pipeline, so their CPU time comes from the
// profile (samples under each Stage.Run) and their run counts from the
// pipeline's own metrics; per-call stage percentiles need the serve
// workloads' stage wrappers and read 0 here.
func (b *bench) studyLayers(untraced, p *studyPass) {
	b.set("trace.overhead_share", p.cost.wall.Seconds()/untraced.cost.wall.Seconds()-1)
	n := float64(p.msgs)
	runs := map[string]float64{}
	var visits float64
	for _, pt := range p.metrics {
		switch pt.Name {
		case "crawlerbox_stage_runs_total":
			for _, l := range pt.Labels {
				if l.Key == "stage" {
					runs[l.Value] = pt.Value
				}
			}
		case "crawlerbox_visits_total":
			visits = pt.Value
		}
	}
	var stageCPU int64
	for _, s := range stageNames {
		b.set("stage."+s+".runs", runs[s])
		b.set("stage."+s+".busy_ms", float64(p.prof.stages[s])/1e6)
		stageCPU += p.prof.stages[s]
	}
	b.set("stage.parse.halt_ratio", 1-ratio(runs["crawl"], runs["parse"]))
	b.set("crawl.visits_per_msg", visits/n)
	b.set("crawl.requests_per_visit", ratio(float64(p.requests), visits))
	b.set("webnet.requests_total", float64(p.requests))
	b.set("report.analyze_s", p.analyze.Seconds())
	b.set("report.census_ms", ms(p.census))
	b.set("report.render_ms", ms(p.render))
	b.set("evstore.evidence_bytes_per_msg", p.evBytes/n)
	b.set("tracestore.segment_bytes_per_msg", p.segBytes/n)
	p.triage.record(b)
	b.setCPUShares(p.prof)
	capacity := float64(b.workers) * float64(p.analyze)
	b.set("unattributed_share", 1-ratio(float64(stageCPU), capacity))
}

// setCPUShares records each layer's share of the profiled CPU time.
func (b *bench) setCPUShares(p *cpuProfile) {
	for _, l := range cpuLayers {
		b.set("cpu."+l+"_share", ratio(float64(p.layers[l]), float64(p.total)))
	}
}

func spanFile(b *bench) string {
	return fmt.Sprintf("%s/spans-%s-s%d.jsonl", outDir, b.workload, b.seed)
}
