package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/ingest"
)

// span is one timed call across a public seam, kept in memory and written
// once at the end of a traced run. Spans of one message share Msg.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Msg    int64  `json:"msg"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans relative to its base time. A nil tracer records
// nothing, so untraced runs pay one nil check per seam.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(name string, parent int, msg int64) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: start, Parent: parent, Msg: msg})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// byName returns the durations of every span with the given name.
func (t *tracer) byName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].dur())
		}
	}
	return out
}

// selfTimes is each span name's total self time: its spans' durations
// minus the part of each span's interval its child spans cover. A child
// may outlive its parent (an analysis runs after the Submit that admitted
// it returned), so children are clipped to the parent's interval and
// their overlaps merged.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := map[string]time.Duration{}
	for i := range t.spans {
		sp := &t.spans[i]
		var ivs [][2]int64
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].Start, sp.Start), min(t.spans[c].End, sp.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, end int64
		for _, iv := range ivs {
			lo := max(iv[0], end)
			if iv[1] > lo {
				covered += iv[1] - lo
				end = iv[1]
			}
		}
		self[sp.Name] += sp.dur() - time.Duration(covered)
	}
	return self
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the enclosing analyze span, carried to the stage wrappers
// through the context the ingest worker hands to Analyze.
type spanRef struct {
	span int
	msg  int64
}

type spanKey struct{}

// tracedStage times one crawlerbox stage; it is assigned through
// Pipeline.Stages in place of the plain DefaultStages() entry.
type tracedStage struct {
	crawlerbox.Stage
	t      *tracer
	halted *atomic.Int64
}

func (s tracedStage) Run(ctx context.Context, ex *crawlerbox.Execution) error {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := s.t.begin("stage."+s.Name(), ref.span, ref.msg)
	err := s.Stage.Run(ctx, ex)
	s.t.end(id)
	if errors.Is(err, crawlerbox.ErrHalt) {
		s.halted.Add(1)
	}
	return err
}

// tracedStages wraps every default stage; halted counts Parse halts.
func tracedStages(t *tracer, halted *atomic.Int64) []crawlerbox.Stage {
	var out []crawlerbox.Stage
	for _, st := range crawlerbox.DefaultStages() {
		h := new(atomic.Int64)
		if st.Name() == "parse" {
			h = halted
		}
		out = append(out, tracedStage{Stage: st, t: t, halted: h})
	}
	return out
}

// crawlCounts are the crawl work counts read from returned analyses.
type crawlCounts struct {
	mu          sync.Mutex
	msgs        int                   // guarded by mu
	visits      int                   // guarded by mu
	requests    int                   // guarded by mu
	scripts     int                   // guarded by mu
	degraded    int                   // guarded by mu
	scriptBytes int                   // guarded by mu
	repeatBytes int                   // guarded by mu
	seen        map[[32]byte]struct{} // guarded by mu
}

func (c *crawlCounts) add(ma *crawlerbox.MessageAnalysis) {
	if ma == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = map[[32]byte]struct{}{}
	}
	c.msgs++
	for _, v := range ma.Visits {
		c.visits++
		if v.Result == nil {
			continue
		}
		c.requests += len(v.Result.Requests)
		c.scripts += len(v.Result.Scripts)
		if v.Result.Degraded {
			c.degraded++
		}
		for _, src := range v.Result.Scripts {
			h := sha256.Sum256([]byte(src))
			c.scriptBytes += len(src)
			if _, ok := c.seen[h]; ok {
				c.repeatBytes += len(src)
			} else {
				c.seen[h] = struct{}{}
			}
		}
	}
}

// analyzer wraps the pipeline handed to the ingest.Service. It stamps
// each analysis's return time (a fresh verdict's emission point) and,
// when traced, records the analyze span, the crawl counts, and the parent
// reference the stage wrappers read.
type analyzer struct {
	a    ingest.Analyzer
	base time.Time
	done []atomic.Int64 // by message ID - 1: ns since base when Analyze returned
	// started, when set, stamps when Analyze was called, by message ID - 1.
	started []atomic.Int64
	t       *tracer
	counts  *crawlCounts
	submit  []int32 // by message ID - 1: the submit span that admitted it
}

func (x *analyzer) Analyze(ctx context.Context, spec crawlerbox.MessageSpec) (*crawlerbox.MessageAnalysis, error) {
	if x.started != nil {
		x.started[spec.ID-1].Store(int64(time.Since(x.base)))
	}
	id := -1
	if x.t != nil {
		id = x.t.begin("analyze", int(x.submit[spec.ID-1]), spec.ID)
		ctx = context.WithValue(ctx, spanKey{}, spanRef{span: id, msg: spec.ID})
	}
	ma, err := x.a.Analyze(ctx, spec)
	x.done[spec.ID-1].Store(int64(time.Since(x.base)))
	if x.t != nil {
		x.t.end(id)
		x.counts.add(ma)
	}
	return ma, err
}

// keyer times the cache-key derivation the service runs inside Submit.
// Submissions come from one goroutine, so the enclosing submit span is a
// plain field.
type keyer struct {
	k      ingest.KeyFunc
	t      *tracer
	parent int
	msg    int64
}

func (k *keyer) key(raw []byte) string {
	id := k.t.begin("key", k.parent, k.msg)
	key := k.k(raw)
	k.t.end(id)
	return key
}
