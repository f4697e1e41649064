package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"crawlerbox/internal/tracestore"
)

// triageReps is how many times the canned set runs on a segment whose
// timings are reported (the first and the traced pass); other passes run
// it once, for its checks. The reported figure is the mean set time over
// the reps: on a shared VM the machine's speed flips between modes over
// sub-second spans, which a mean over a long window averages and a median
// does not.
const triageReps = 300

// triageTimes are one segment's triage timings.
type triageTimes struct {
	open      time.Duration
	sets      []time.Duration
	queries   map[string][]time.Duration
	checklist []time.Duration
	readj     []time.Duration
}

// triage opens a finalized segment the way an analyst does and runs the
// canned set (three queries, one checklist, one re-adjudication),
// triageReps times if its timings are reported and once otherwise. It
// checks that the set answers and that every stored verdict still
// re-adjudicates to itself.
func (b *bench) triage(tr *tracer, segPath string, timed bool) (*triageTimes, error) {
	reps := 1
	if timed {
		reps = triageReps
	}
	tt := &triageTimes{queries: map[string][]time.Duration{}}
	runtime.GC()
	start := time.Now()
	root := tr.begin("tracestore.open", -1, 0)
	st, err := tracestore.Open(segPath)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("triage: %w", err)
	}
	defer st.Close()
	tt.open = time.Since(start)

	queries := make([]tracestore.Query, len(triageQueries))
	for i, q := range triageQueries {
		if queries[i], err = tracestore.ParseQuery(q.q); err != nil {
			return nil, fmt.Errorf("triage: %w", err)
		}
	}
	var subject int64
	for rep := 0; rep < reps; rep++ {
		setStart := time.Now()
		for i, q := range triageQueries {
			t0 := time.Now()
			id := tr.begin("tracestore.query."+q.name, -1, 0)
			rows, err := st.Query(queries[i])
			tr.end(id)
			tt.queries[q.name] = append(tt.queries[q.name], time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("triage: query %q: %w", q.q, err)
			}
			if i == 0 {
				if rep == 0 {
					b.check(len(rows) > 0, "triage: query %q found no verdicts", q.q)
				}
				if len(rows) > 0 {
					subject = rows[0].ID
				}
			}
		}
		t0 := time.Now()
		id := tr.begin("tracestore.checklist", -1, subject)
		text, err := st.Checklist(subject)
		tr.end(id)
		tt.checklist = append(tt.checklist, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("triage: checklist %d: %w", subject, err)
		}
		t0 = time.Now()
		id = tr.begin("tracestore.readjudicate", -1, subject)
		r, err := st.Readjudicate(subject)
		tr.end(id)
		tt.readj = append(tt.readj, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("triage: readjudicate %d: %w", subject, err)
		}
		tt.sets = append(tt.sets, time.Since(setStart))
		if rep == 0 {
			b.check(strings.Contains(text, "MATCHES"), "triage: checklist %d does not match its stored verdict", subject)
			b.check(r.Match, "triage: verdict %d re-adjudicates to %s", subject, r.Outcome)
		}
	}
	drift := 0
	for _, id := range st.IDs() {
		r, err := st.Readjudicate(id)
		if err != nil || !r.Match {
			drift++
		}
	}
	b.check(drift == 0, "triage: %d of %d stored verdicts do not re-adjudicate to themselves", drift, st.Len())
	return tt, nil
}

// meanSet is the mean canned-set time in ms.
func (tt *triageTimes) meanSet() float64 {
	var total time.Duration
	for _, d := range tt.sets {
		total += d
	}
	return ms(total) / float64(max(len(tt.sets), 1))
}

// record stores each triage call's median for the traced run.
func (tt *triageTimes) record(b *bench) {
	b.set("tracestore.open_ms", ms(tt.open))
	for _, q := range triageQueries {
		b.set("tracestore.query_us."+q.name, median(durs(tt.queries[q.name], us)))
	}
	b.set("tracestore.checklist_us", median(durs(tt.checklist, us)))
	b.set("tracestore.readjudicate_us", median(durs(tt.readj, us)))
}
