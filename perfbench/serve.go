package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
	"crawlerbox/internal/resilience"
	"crawlerbox/internal/tracestore"
)

// serveConfig fixes one serve workload. The rates are constants, never
// derived from capacity measured at run time; README.md records them.
type serveConfig struct {
	// faults arms resilience.DefaultPolicy (10% seeded fault rate).
	faults bool
	// storm re-reports every active-phishing message k times.
	storm bool
	// refRate is the open-loop reference rate (msg/s) at which the verdict
	// latency is reported, over refMsgs arrivals.
	refRate float64
	refMsgs int
	// ladder are the staircase rungs above the reference, rungMsgs
	// arrivals each.
	ladder   []float64
	rungMsgs int
}

var serveConfigs = map[string]serveConfig{
	"serve-steady": {faults: true, refRate: 400, refMsgs: 2000, ladder: []float64{900, 1400, 1900}, rungMsgs: 1000},
	// The storm's first reports carry the corpus's heaviest MIME payloads:
	// key derivation averages 1.4 ms per submission over the first 1,000
	// against 0.2 ms later, so its reference rate sits near a third of the
	// serialized submitter's early capacity, not of the closed-loop average.
	"serve-storm": {storm: true, refRate: 400, refMsgs: 2000, ladder: []float64{800, 1600, 2400, 3200}, rungMsgs: 2000},
}

const (
	// latencyLimit is the verdict_p99_ms limit a staircase rung must meet.
	latencyLimit = 100 * time.Millisecond
	// maxPending arms admission control well above the deepest waiter
	// pile-up a storm can cause (58 reports of each in-flight message), so
	// only a genuinely growing backlog sheds.
	maxPending = 1024
	// stormMax caps re-reports per message at the paper's maximum.
	stormMax = 58
	// stormAlpha is the Pareto tail index of the re-report count.
	stormAlpha = 0.7
	// stormSpread is the mean distance, in submissions, between a message
	// and each of its re-reports.
	stormSpread = 20.0
)

// world is one deployed corpus with its pipeline and pre-rendered specs.
type world struct {
	pipe  *crawlerbox.Pipeline
	specs []ingest.Spec
}

func (b *bench) buildWorld(ctx context.Context, cfg serveConfig, stages []crawlerbox.Stage) (*world, time.Duration, error) {
	t0 := time.Now()
	c, err := dataset.Stream(dataset.Config{Seed: b.seed, Scale: scale})
	if err != nil {
		return nil, 0, err
	}
	pipe := crawlerbox.New(c.Net, c.Registry)
	pipe.Stages = stages
	if cfg.faults {
		pipe.Resilience = resilience.DefaultPolicy()
	}
	brands := make([]string, 0, len(c.BrandURLs))
	for brand := range c.BrandURLs {
		brands = append(brands, brand)
	}
	sort.Strings(brands)
	for _, brand := range brands {
		if err := pipe.AddReference(ctx, brand, c.BrandURLs[brand]); err != nil {
			return nil, 0, fmt.Errorf("reference %s: %w", brand, err)
		}
	}
	var specs []ingest.Spec
	var phish []dataset.Carrier // carrier of each active-phishing message, 0 otherwise
	c.Each(func(i int, m *dataset.Message) bool {
		specs = append(specs, ingest.Spec{ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour), Raw: m.Raw})
		var carrier dataset.Carrier
		if m.Category == dataset.CatActivePhish {
			carrier = m.Carrier
		}
		phish = append(phish, carrier)
		return true
	})
	if cfg.storm {
		specs = stormSpecs(specs, phish, b.seed)
	}
	return &world{pipe: pipe, specs: specs}, time.Since(t0), nil
}

// stormSpecs re-reports each active-phishing message k times in all, k
// heavy-tailed (Pareto, capped at stormMax). Within each URL carrier the
// k values are the Pareto quantiles at evenly spaced probabilities, dealt
// to the carrier's messages in a seeded order: every seed draws the same
// storm size and the same share of re-reports without a cacheable URL
// (HTML attachments), and only which messages are re-reported, and where,
// varies. Copies follow their original at exponentially distributed
// distances, so some arrive while it is still being analyzed (cache
// waiters) and the rest as direct hits. IDs are reassigned in submission
// order.
func stormSpecs(specs []ingest.Spec, phish []dataset.Carrier, seed int64) []ingest.Spec {
	rng := rand.New(rand.NewSource(seed ^ 0x570a))
	groups := map[dataset.Carrier][]int{}
	for i, c := range phish {
		if c != 0 {
			groups[c] = append(groups[c], i)
		}
	}
	reports := make([]int, len(specs))
	for c := dataset.CarrierTextLink; c <= dataset.CarrierNone; c++ {
		g := groups[c]
		for j, p := range rng.Perm(len(g)) {
			u := (float64(j) + 0.5) / float64(len(g))
			reports[g[p]] = int(math.Min(stormMax, math.Floor(math.Pow(1-u, -1/stormAlpha))))
		}
	}
	type entry struct {
		pos  float64
		spec ingest.Spec
	}
	es := make([]entry, 0, 4*len(specs))
	for i, s := range specs {
		es = append(es, entry{float64(i), s})
		for j := 1; j < reports[i]; j++ {
			off := 1 + rng.ExpFloat64()*stormSpread
			c := s
			c.At = s.At.Add(time.Duration(off * float64(time.Minute)))
			es = append(es, entry{float64(i) + off, c})
		}
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].pos < es[j].pos })
	out := make([]ingest.Spec, len(es))
	for i := range es {
		out[i] = es[i].spec
		out[i].ID = int64(i + 1)
	}
	return out
}

func (b *bench) serviceOptions() []ingest.Option {
	return []ingest.Option{ingest.WithWorkers(b.workers), ingest.WithMaxPending(maxPending)}
}

// closedPass is one closed-loop replay of the full submission sequence
// plus the restart and triage phases on the journal and verdicts it left.
type closedPass struct {
	setup      time.Duration
	cost       loopCost
	rate       float64
	cpuMs      float64
	allocKB    float64
	retained   float64
	stream     []byte
	counters   ingest.Counters
	readlog    time.Duration
	resumeRest time.Duration
	journal    float64
	triage     *triageTimes
	pendingMax int
}

func runServe(ctx context.Context, b *bench) error {
	cfg := serveConfigs[b.workload]
	var passes []*closedPass
	var last time.Duration
	var stair *stairResult
	minPasses := 2
	for len(passes) < minPasses || (!b.traced && !b.passDone(len(passes), minPasses, last)) {
		traced := b.traced && len(passes) == 1
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		start := time.Now()
		p, err := b.closedPass(ctx, cfg, len(passes), tr)
		if err != nil {
			return err
		}
		if len(passes) > 0 {
			b.check(bytes.Equal(p.stream, passes[0].stream), "%s: pass %d verdict stream differs from pass 0", b.workload, len(passes))
		}
		passes = append(passes, p)
		last = time.Since(start)
		fmt.Printf("%s: pass %d: %.2fs, setup %.3fs, %.1f msg/s (steal %.3fs), %.4f cpu ms/msg, %.2f KiB/msg, retained %.2f MiB\n",
			b.workload, len(passes)-1, last.Seconds(), p.setup.Seconds(), p.rate, p.cost.stolen.Seconds(), p.cpuMs, p.allocKB, p.retained)
		if traced {
			// The open-loop staircase runs in the traced run, where its
			// latency figures are reported, checked against the first replay.
			if stair, err = b.staircase(ctx, cfg, passes[0].stream); err != nil {
				return err
			}
			b.set("trace.overhead_share", p.cost.wall.Seconds()/passes[0].cost.wall.Seconds()-1)
			p.triage.record(b)
			if err := tr.write(spanFile(b)); err != nil {
				return err
			}
		}
	}
	measured := passes
	if b.traced {
		measured = passes[:1]
	}
	var setups, rates, cpus, allocs, retained []float64
	for _, p := range measured {
		setups = append(setups, p.setup.Seconds())
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
	b.set("resume_ms", ms(passes[0].readlog+passes[0].resumeRest))
	b.set("ingest.readlog_ms", ms(passes[0].readlog))
	b.set("ingest.resume_drain_ms", ms(passes[0].resumeRest))
	if stair != nil {
		stair.record(b)
	}
	c := passes[0].counters
	b.set("ingest.cache_hit_ratio", ratio(float64(c.CacheHits), float64(c.Submitted)))
	b.set("ingest.keyless_ratio", ratio(float64(c.Keyless), float64(c.Submitted)))
	fmt.Printf("%s: %d closed-loop passes of %d submissions\n", b.workload, len(passes), c.Submitted+c.Rejected)
	return nil
}

func (b *bench) closedPass(ctx context.Context, cfg serveConfig, pass int, tr *tracer) (*closedPass, error) {
	var halted atomic.Int64
	var stages []crawlerbox.Stage
	if tr != nil {
		stages = tracedStages(tr, &halted)
	}
	w, setup, err := b.buildWorld(ctx, cfg, stages)
	if err != nil {
		return nil, err
	}
	p := &closedPass{setup: setup}
	base := settledHeap()
	journal := b.path(fmt.Sprintf("closed-%d.journal", pass))
	defer os.Remove(journal)
	log, err := ingest.CreateLog(journal)
	if err != nil {
		return nil, err
	}
	var an ingest.Analyzer = w.pipe
	key := ingest.PipelineKeyer(w.pipe)
	var kz *keyer
	var ta *analyzer
	var counts crawlCounts
	var prof profiler
	if tr != nil {
		ta = &analyzer{a: w.pipe, base: tr.base, done: make([]atomic.Int64, len(w.specs)),
			t: tr, counts: &counts, submit: make([]int32, len(w.specs))}
		an = ta
		kz = &keyer{k: key, t: tr}
		key = kz.key
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	svc := ingest.NewService(an, key, log, b.serviceOptions()...)
	p.cost = startCost()
	svc.Start(ctx)
	rejected := map[int64]bool{}
	for _, spec := range w.specs {
		var err error
		if tr == nil {
			err = svc.Submit(ctx, spec)
		} else {
			id := tr.begin("submit", -1, spec.ID)
			ta.submit[spec.ID-1] = int32(id)
			kz.parent, kz.msg = id, spec.ID
			err = svc.Submit(ctx, spec)
			tr.end(id)
			if _, pending := svc.Stats(); pending > p.pendingMax {
				p.pendingMax = pending
			}
		}
		if err != nil {
			if !errors.Is(err, ingest.ErrOverloaded) {
				svc.Drain()
				if tr != nil {
					prof.stop()
				}
				return nil, fmt.Errorf("submit %d: %w", spec.ID, err)
			}
			rejected[spec.ID] = true
		}
	}
	res, err := svc.Drain()
	if err != nil {
		if tr != nil {
			prof.stop()
		}
		return nil, err
	}
	p.rate, p.cpuMs, p.allocKB = p.cost.finish(len(w.specs))
	var cpuProf *cpuProfile
	if tr != nil {
		if cpuProf, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	p.retained = float64(int64(settledHeap())-int64(base)) / (1 << 20)
	runtime.KeepAlive(w)
	p.counters = res.Counters
	p.journal = fileSize(journal)
	b.checkEmissions(w.specs, rejected, res)
	var buf bytes.Buffer
	if err := res.WriteVerdictStream(&buf); err != nil {
		return nil, err
	}
	p.stream = buf.Bytes()
	if tr != nil {
		b.closedLayers(p, tr, &counts, halted.Load(), cpuProf)
	}
	if pass > 0 && tr == nil {
		// The restart is measured on the first pass and the traced one.
		return p, b.serveTriage(p, res, pass, tr)
	}

	// Restart: read the journal back and resume a fresh service on it.
	t0 := time.Now()
	state, err := ingest.ReadLog(journal)
	if err != nil {
		return nil, err
	}
	p.readlog = time.Since(t0)
	t1 := time.Now()
	svc2 := ingest.NewService(w.pipe, ingest.PipelineKeyer(w.pipe), nil, b.serviceOptions()...)
	svc2.Start(ctx)
	if err := svc2.Resume(ctx, state); err != nil {
		svc2.Drain()
		return nil, err
	}
	res2, err := svc2.Drain()
	if err != nil {
		return nil, err
	}
	p.resumeRest = time.Since(t1)
	buf.Reset()
	if err := res2.WriteVerdictStream(&buf); err != nil {
		return nil, err
	}
	b.check(bytes.Equal(buf.Bytes(), p.stream), "%s: resumed verdict stream differs from the replay's", b.workload)
	b.check(res2.Counters.Resumed == res.Counters.Submitted,
		"%s: resume re-emitted %d of %d verdicts", b.workload, res2.Counters.Resumed, res.Counters.Submitted)
	return p, b.serveTriage(p, res, pass, tr)
}

// serveTriage writes the daemon's verdicts as a segment, as its replay
// mode does, and runs study's triage set on it. The world is no longer
// referenced, so, as in an analyst's own process, the live heap is small.
func (b *bench) serveTriage(p *closedPass, res *ingest.Result, pass int, tr *tracer) error {
	seg := b.path(fmt.Sprintf("closed-%d.tstore", pass))
	defer os.Remove(seg)
	if err := res.WriteTraceStore(seg, nil, nil); err != nil {
		return err
	}
	var err error
	p.triage, err = b.triage(tr, seg, pass == 0 || tr != nil)
	return err
}

// checkEmissions checks that every attempted ID has exactly one emission
// or a counted failure, and that every accepted submission was either a
// fresh analysis or a cache hit. Sheds and failed analyses are failed
// operations.
func (b *bench) checkEmissions(specs []ingest.Spec, rejected map[int64]bool, res *ingest.Result) {
	b.attempted += int64(len(specs))
	b.failed += int64(len(rejected))
	count := make([]int, len(specs)+1)
	stray, failedOutcome := 0, 0
	for i := range res.Emitted {
		e := &res.Emitted[i]
		if e.ID < 1 || int(e.ID) > len(specs) || rejected[e.ID] {
			stray++
			continue
		}
		count[e.ID]++
		if e.Verdict.Outcome == tracestore.OutcomeFailed {
			failedOutcome++
		}
	}
	bad := 0
	for _, s := range specs {
		if !rejected[s.ID] && count[s.ID] != 1 {
			bad++
		}
	}
	b.failed += int64(failedOutcome)
	b.check(stray == 0 && bad == 0, "%s: %d IDs without exactly one emission, %d stray emissions", b.workload, bad, stray)
	c := res.Counters
	b.check(c.Fresh+c.CacheHits == c.Submitted, "%s: fresh %d + cache hits %d != submitted %d",
		b.workload, c.Fresh, c.CacheHits, c.Submitted)
}

// closedLayers derives the per-layer metrics of the traced closed-loop
// pass from its spans, crawl counts and CPU profile.
func (b *bench) closedLayers(p *closedPass, tr *tracer, counts *crawlCounts, halted int64, prof *cpuProfile) {
	wall := p.cost.wall
	keys := tr.byName("key")
	var keyBusy time.Duration
	for _, d := range keys {
		keyBusy += d
	}
	b.set("ingest.key_us_p50", quantile(durs(keys, us), 0.5))
	b.set("ingest.key_us_p99", quantile(durs(keys, us), 0.99))
	b.set("ingest.key_busy_share", ratio(float64(keyBusy), float64(wall)))
	submits := durs(tr.byName("submit"), us)
	b.set("ingest.submit_us_p50", quantile(submits, 0.5))
	b.set("ingest.submit_us_p99", quantile(submits, 0.99))
	analyses := tr.byName("analyze")
	var analyzeBusy time.Duration
	for _, d := range analyses {
		analyzeBusy += d
	}
	self := tr.selfTimes()
	b.set("ingest.submit_self_ms", ms(self["submit"]))
	b.set("crawlerbox.analyze_self_ms", ms(self["analyze"]))
	b.set("ingest.analyze_ms_p50", quantile(durs(analyses, ms), 0.5))
	b.set("ingest.analyze_ms_p99", quantile(durs(analyses, ms), 0.99))
	b.set("ingest.shed_count", float64(p.counters.Rejected))
	b.set("ingest.pending_max", float64(p.pendingMax))
	b.set("ingest.journal_bytes_per_msg", p.journal/float64(p.counters.Submitted))
	for _, s := range stageNames {
		ds := tr.byName("stage." + s)
		b.set("stage."+s+".busy_ms", ms(self["stage."+s]))
		b.set("stage."+s+".p50_us", quantile(durs(ds, us), 0.5))
		b.set("stage."+s+".p99_us", quantile(durs(ds, us), 0.99))
		b.set("stage."+s+".runs", float64(len(ds)))
	}
	b.set("stage.parse.halt_ratio", ratio(float64(halted), float64(len(tr.byName("stage.parse")))))
	counts.mu.Lock()
	b.set("crawl.visits_per_msg", ratio(float64(counts.visits), float64(counts.msgs)))
	b.set("crawl.requests_per_visit", ratio(float64(counts.requests), float64(counts.visits)))
	b.set("crawl.scripts_per_visit", ratio(float64(counts.scripts), float64(counts.visits)))
	b.set("crawl.degraded_share", ratio(float64(counts.degraded), float64(counts.visits)))
	b.set("webnet.requests_total", float64(counts.requests))
	b.set("minijs.repeat_source_share", ratio(float64(counts.repeatBytes), float64(counts.scriptBytes)))
	counts.mu.Unlock()
	b.setCPUShares(prof)
	// Worker time no timed layer covers: the workers' share of the wall
	// spent outside Analyze (waiting for jobs, journaling, cache fills).
	capacity := float64(b.workers) * float64(wall)
	b.set("unattributed_share", 1-ratio(float64(analyzeBusy), capacity))
}
