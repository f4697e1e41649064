package crawlerbox

import (
	"context"
	"testing"

	"crawlerbox/internal/phishkit"
)

func TestAppendQueryFragment(t *testing.T) {
	// Regression: the query must be inserted before any fragment, not
	// appended after it (servers never see the fragment part).
	for _, tc := range []struct {
		url, kv, want string
	}{
		{"https://h.example/p", "otp=1", "https://h.example/p?otp=1"},
		{"https://h.example/p?a=1", "otp=2", "https://h.example/p?a=1&otp=2"},
		{"https://h.example/p#frag", "otp=3", "https://h.example/p?otp=3#frag"},
		{"https://h.example/p?a=1#frag", "otp=4", "https://h.example/p?a=1&otp=4#frag"},
		{"https://h.example/p#", "otp=5", "https://h.example/p?otp=5#"},
	} {
		if got := appendQuery(tc.url, tc.kv); got != tc.want {
			t.Errorf("appendQuery(%q, %q) = %q, want %q", tc.url, tc.kv, got, tc.want)
		}
	}
}

// recordStage is a test stage that logs its execution.
type recordStage struct {
	name string
	log  *[]string
}

func (s recordStage) Name() string { return s.name }

func (s recordStage) Run(context.Context, *Execution) error {
	*s.log = append(*s.log, s.name)
	return nil
}

func TestStageChainHaltAndCustomStages(t *testing.T) {
	env := newEnv(t)
	var log []string
	env.pipe.Stages = []Stage{ParseStage{}, recordStage{"custom", &log}}

	// A message with nothing to crawl halts at ParseStage: the custom stage
	// must not run and the outcome is already decided.
	ma, err := env.pipe.AnalyzeMessage(buildMsg(t, "Plain text, nothing to fetch."))
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeNoResource {
		t.Errorf("outcome = %v, want no-web-resource", ma.Outcome)
	}
	if len(log) != 0 {
		t.Errorf("custom stage ran after a halting parse: %v", log)
	}

	// A message with a URL flows through the full custom chain.
	if _, err := env.pipe.AnalyzeMessage(buildMsg(t, "Click https://taken-down.example/login now")); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0] != "custom" {
		t.Errorf("custom stage log = %v, want [custom]", log)
	}
}

func TestDiffProbeStageInsertion(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:            "fpcloak-staged.com",
		Brand:           phishkit.BrandAcmeTravelTech,
		FingerprintGate: true,
	})
	env.pipe.Stages = []Stage{
		ParseStage{}, CrawlStage{}, InteractStage{}, DiffProbeStage{},
		ClassifyStage{}, CensusStage{}, EnrichStage{},
	}
	ma, err := env.pipe.AnalyzeMessage(buildMsg(t, "Verify your account: "+site.LandingURL))
	if err != nil {
		t.Fatal(err)
	}
	if len(ma.Probes) != 1 {
		t.Fatalf("probes = %d, want 1", len(ma.Probes))
	}
	if !ma.Probes[0].Cloaked {
		t.Error("fingerprint-gated site must be flagged by the staged probe")
	}
}
