package crawlerbox

import (
	"context"
	"testing"
	"time"

	"crawlerbox/internal/obs"
	"crawlerbox/internal/phishkit"
)

// TestSpanStatusTaxonomy pins the stable span-attribute vocabulary: every
// Outcome and ErrorKind value must map to a distinct, non-"unknown" string
// (these strings are root-span attributes and metric labels, so renaming one
// silently breaks trace goldens and dashboards), and outcomeSpanStatus must
// mark exactly the error-page disposition as failed.
func TestSpanStatusTaxonomy(t *testing.T) {
	outcomes := []Outcome{
		OutcomeNoResource, OutcomeError, OutcomeInteraction,
		OutcomeDownload, OutcomeActivePhish, OutcomeCloaked,
		OutcomePartial,
	}
	seen := map[string]bool{}
	for _, o := range outcomes {
		s := o.String()
		if s == "unknown" || s == "" {
			t.Errorf("Outcome(%d) has no stable name", o)
		}
		if seen[s] {
			t.Errorf("Outcome name %q is not unique", s)
		}
		seen[s] = true
		want := obs.StatusOK
		if o == OutcomeError {
			want = obs.StatusError
		}
		if got := outcomeSpanStatus(o); got != want {
			t.Errorf("outcomeSpanStatus(%s) = %q, want %q", s, got, want)
		}
	}
	// Sentinel: one past the last outcome must fall through to "unknown",
	// proving the list above covers the whole enumeration.
	if got := (OutcomePartial + 1).String(); got != "unknown" {
		t.Errorf("sentinel outcome = %q; a new Outcome was added without extending this test", got)
	}

	kinds := map[ErrorKind]string{
		ErrorNone:    "none",
		ErrorNetwork: "network",
		ErrorContent: "content",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("ErrorKind(%d) = %q, want %q", k, got, want)
		}
	}
	if got := (ErrorContent + 1).String(); got != "none" {
		t.Errorf("sentinel error kind = %q; a new ErrorKind was added without extending this test", got)
	}
}

// TestForkedClockSpanTimeline is the ISSUE's per-request clock regression:
// a visit analyzed at spec.At runs on a private fork of the virtual clock,
// and every span — including the webnet request spans underneath the visit —
// must record timestamps on that fork's timeline (anchored at AnalyzedAt),
// never on the shared world clock, which must not move at all.
func TestForkedClockSpanTimeline(t *testing.T) {
	env := newEnv(t)
	o := obs.New()
	env.pipe.Obs = o
	env.net.Metrics = o.Metrics
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "forked-clock.com",
		Brand: phishkit.BrandAcmeTravelTech,
	})
	worldBefore := env.net.Clock.Now()
	at := worldBefore.Add(45 * 24 * time.Hour) // far from the world clock
	ma, err := env.pipe.Analyze(context.Background(),
		MessageSpec{Raw: buildMsg(t, "Verify your account: "+site.LandingURL), ID: 99, At: at})
	if err != nil {
		t.Fatal(err)
	}
	if !ma.AnalyzedAt.Equal(at) {
		t.Fatalf("AnalyzedAt = %v, want %v", ma.AnalyzedAt, at)
	}
	if !env.net.Clock.Now().Equal(worldBefore) {
		t.Errorf("world clock moved during the analysis: %v -> %v", worldBefore, env.net.Clock.Now())
	}

	traces := o.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	root := obs.Root(tr)
	if root == nil || !root.StartTime.Equal(at) {
		t.Fatalf("root span start = %v, want AnalyzedAt baseline %v", root.StartTime, at)
	}
	var requests int
	for _, s := range tr.Spans() {
		if s.StartTime.Before(at) || s.EndTime.Before(s.StartTime) {
			t.Errorf("span %d (%s %q) off the fork timeline: start=%v end=%v",
				s.ID, s.Kind, s.Name, s.StartTime, s.EndTime)
		}
		if s.Kind == obs.SpanRequest {
			requests++
			if !s.StartTime.After(worldBefore) {
				t.Errorf("request span %q stamped from the world clock: start=%v", s.Name, s.StartTime)
			}
		}
	}
	if requests == 0 {
		t.Error("no request spans recorded under the visit")
	}
	if root.Duration() <= 0 {
		t.Error("root span has no virtual duration despite network round trips")
	}
}
