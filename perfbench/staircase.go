package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"crawlerbox/internal/ingest"
	"crawlerbox/internal/tracestore"
)

// rung is one fixed open-loop arrival rate of the staircase.
type rung struct {
	rate float64
	msgs int
	ids  []int64
	// achieved is the scheduled arrival rate actually drawn (msg/s).
	achieved float64
	lat      []float64 // ms from due time to verdict; +Inf for misses
	wait     []float64 // ms from admission to Analyze start, fresh only
	misses   int
	pass     bool
}

type stairResult struct {
	rungs []*rung
	late  []float64 // ms the generator ran behind each due time
}

// staircase submits the sequence's prefix open-loop on a fresh world:
// the reference rung, then each ladder rung, every arrival a new message
// at a seeded Poisson due time. Each verdict is timed from its due time
// to its emission: a fresh verdict when its Analyze call returns, a
// cached one when Submit returns or its source's Analyze returns,
// whichever is later. The verdicts of accepted IDs must equal the
// closed-loop replay's byte for byte.
func (b *bench) staircase(ctx context.Context, cfg serveConfig, replay []byte) (*stairResult, error) {
	w, setup, err := b.buildWorld(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: staircase world built in %.2fs\n", b.workload, setup.Seconds())
	journal := b.path("stair.journal")
	defer os.Remove(journal)
	log, err := ingest.CreateLog(journal)
	if err != nil {
		return nil, err
	}
	n := len(w.specs)
	base := time.Now()
	an := &analyzer{a: w.pipe, base: base, done: make([]atomic.Int64, n), started: make([]atomic.Int64, n)}
	svc := ingest.NewService(an, ingest.PipelineKeyer(w.pipe), log, b.serviceOptions()...)
	svc.Start(ctx)

	due := make([]int64, n)
	ret := make([]int64, n)
	rejected := map[int64]bool{}
	sr := &stairResult{}
	rng := rand.New(rand.NewSource(b.seed*7919 + 101))
	plan := []*rung{{rate: cfg.refRate, msgs: cfg.refMsgs}}
	for _, r := range cfg.ladder {
		plan = append(plan, &rung{rate: r, msgs: cfg.rungMsgs})
	}
	pos := 0
	for _, r := range plan {
		if pos+r.msgs > n {
			break
		}
		start := int64(time.Since(base)) + int64(2*time.Millisecond)
		t := start
		for k := 0; k < r.msgs; k++ {
			spec := w.specs[pos+k]
			t += int64(rng.ExpFloat64() / r.rate * 1e9)
			due[spec.ID-1] = t
			if d := time.Duration(t - int64(time.Since(base))); d > 0 {
				time.Sleep(d)
			}
			sr.late = append(sr.late, float64(int64(time.Since(base))-t)/1e6)
			err := svc.Submit(ctx, spec)
			ret[spec.ID-1] = int64(time.Since(base))
			if err != nil {
				if !errors.Is(err, ingest.ErrOverloaded) {
					svc.Drain()
					return nil, fmt.Errorf("staircase submit %d: %w", spec.ID, err)
				}
				rejected[spec.ID] = true
			}
			r.ids = append(r.ids, spec.ID)
		}
		r.achieved = float64(r.msgs) / (float64(t-start) / 1e9)
		// Let the rung's backlog clear so rungs do not overlap.
		for {
			if _, pending := svc.Stats(); pending == 0 {
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
		sr.rungs = append(sr.rungs, r)
		pos += r.msgs
	}
	res, err := svc.Drain()
	if err != nil {
		return nil, err
	}
	b.checkEmissions(w.specs[:pos], rejected, res)

	emit := make([]int64, n)
	failed := make([]bool, n)
	fresh := make([]bool, n)
	for i := range res.Emitted {
		e := &res.Emitted[i]
		id := e.ID - 1
		if e.Provenance == ingest.ProvenanceFresh {
			emit[id] = an.done[id].Load()
			fresh[id] = true
		} else {
			emit[id] = max(ret[id], an.done[e.CachedFrom-1].Load())
		}
		failed[id] = e.Verdict.Outcome == tracestore.OutcomeFailed
	}
	for _, r := range sr.rungs {
		for _, id := range r.ids {
			i := id - 1
			if rejected[id] || failed[i] {
				r.misses++
				r.lat = append(r.lat, math.Inf(1))
				continue
			}
			r.lat = append(r.lat, float64(emit[i]-due[i])/1e6)
			if fresh[i] {
				r.wait = append(r.wait, float64(an.started[i].Load()-ret[i])/1e6)
			}
		}
		// No growing backlog: the rung's last tenth meets the limit too.
		tail := r.lat[len(r.lat)*9/10:]
		limit := ms(latencyLimit)
		r.pass = r.misses == 0 && quantile(r.lat, 0.99) <= limit && quantile(tail, 0.5) <= limit
		fmt.Printf("%s: rung %6.0f msg/s (drawn %6.1f): p50 %8.2f ms  p99 %8.2f ms  misses %d  pass %v\n",
			b.workload, r.rate, r.achieved, quantile(r.lat, 0.5), quantile(r.lat, 0.99), r.misses, r.pass)
	}

	// Determinism contract: the open-loop verdicts of accepted IDs equal
	// the closed-loop replay's lines for the same IDs.
	var buf bytes.Buffer
	if err := res.WriteVerdictStream(&buf); err != nil {
		return nil, err
	}
	want := map[int64][]byte{}
	for _, line := range bytes.SplitAfter(replay, []byte("\n")) {
		if id := lineID(line); id > 0 && int(id) <= pos {
			want[id] = line
		}
	}
	mismatch := 0
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if id := lineID(line); id > 0 && !bytes.Equal(line, want[id]) {
			mismatch++
		}
	}
	b.check(mismatch == 0, "%s: %d open-loop verdicts differ from the closed-loop replay", b.workload, mismatch)
	return sr, nil
}

// lineID reads the leading "id" field of a verdict-stream line.
func lineID(line []byte) int64 {
	rest, ok := bytes.CutPrefix(line, []byte(`{"id":`))
	if !ok {
		return 0
	}
	var id int64
	for _, c := range rest {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// record stores the staircase's user-facing figures: latency at the
// reference rung, the highest passing rung below which every rung passed,
// the reference rung's queue wait, and the generator's lateness.
func (sr *stairResult) record(b *bench) {
	ref := sr.rungs[0]
	b.set("verdict_p50_ms", quantile(ref.lat, 0.5))
	b.set("verdict_p99_ms", quantile(ref.lat, 0.99))
	b.set("ingest.queue_wait_ms_p50", quantile(ref.wait, 0.5))
	b.set("ingest.queue_wait_ms_p99", quantile(ref.wait, 0.99))
	maxRate := 0.0
	for _, r := range sr.rungs {
		if !r.pass {
			break
		}
		maxRate = r.achieved
	}
	b.set("max_rate_msgs_per_s", maxRate)
	b.set("gen.late_ms_p99", quantile(sr.late, 0.99))
}
