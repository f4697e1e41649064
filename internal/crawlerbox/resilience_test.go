package crawlerbox

import (
	"context"
	"testing"

	"crawlerbox/internal/phishkit"
)

// TestAnalyzeMessageMatchesAnalyze pins the API-consolidation contract:
// AnalyzeMessage is a thin shim over Analyze — on a fresh pipeline it must
// produce the same analysis as Analyze with the spec it forwards (the
// pipeline counter's first seed, no explicit analysis time).
func TestAnalyzeMessageMatchesAnalyze(t *testing.T) {
	deploy := func(env *testEnv) []byte {
		site := phishkit.Deploy(env.net, phishkit.SiteConfig{
			Host:  "acmetraveltech-sso.buzz",
			Brand: phishkit.BrandAcmeTravelTech,
		})
		return buildMsg(t, "Your password expires today. Renew: "+site.LandingURL)
	}

	envA := newEnv(t)
	maA, errA := envA.pipe.AnalyzeMessage(deploy(envA))

	envB := newEnv(t)
	maB, errB := envB.pipe.Analyze(context.Background(), MessageSpec{Raw: deploy(envB), ID: 1})

	if errA != nil || errB != nil {
		t.Fatalf("errors: AnalyzeMessage=%v Analyze=%v", errA, errB)
	}
	if maA.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v, want active-phishing", maA.Outcome)
	}
	if maA.Outcome != maB.Outcome {
		t.Errorf("outcome diverges: AnalyzeMessage=%v Analyze=%v", maA.Outcome, maB.Outcome)
	}
	if len(maA.Visits) != len(maB.Visits) {
		t.Errorf("visit count diverges: %d vs %d", len(maA.Visits), len(maB.Visits))
	}
	if maA.Brand != maB.Brand || maA.SpearPhish != maB.SpearPhish {
		t.Errorf("classification diverges: %q/%v vs %q/%v",
			maA.Brand, maA.SpearPhish, maB.Brand, maB.SpearPhish)
	}
}
