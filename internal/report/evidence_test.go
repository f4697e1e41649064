package report

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/evstore"
)

// TestEvidenceStoreEquivalence pins the WithEvidencePath contract: spilling
// evidence to disk changes where the bytes live, never what the run reports.
// A streamed, spilled run must render every artifact byte-identically to a
// slice-backed, fully in-RAM run of the same seed.
func TestEvidenceStoreEquivalence(t *testing.T) {
	render := func(r *Run) map[string]string {
		return map[string]string{
			"disposition": r.RenderDisposition(),
			"fig2":        r.RenderFigure2(),
			"table2":      r.RenderTable2(),
			"fig3":        r.RenderFigure3(),
			"spear":       r.RenderSpear(),
			"nontargeted": r.RenderNonTargeted(),
			"cloaks":      r.RenderCloaks(),
		}
	}

	cfg := dataset.Config{Seed: 42, Scale: 0.1}
	ram, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ramRun, err := Analyze(context.Background(), ram, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	spilled, err := dataset.Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evPath := filepath.Join(t.TempDir(), "ev.bin")
	spillRun, err := Analyze(context.Background(), spilled, WithWorkers(4), WithEvidencePath(evPath))
	if err != nil {
		t.Fatal(err)
	}
	// Analyze closed the store it created; reopen it read-only so the
	// post-run traffic readers below decode the spilled ledger.
	store, err := evstore.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spilled.Net.SpillTrafficTo(store)

	want, got := render(ramRun), render(spillRun)
	for key := range want {
		if want[key] != got[key] {
			t.Errorf("%s diverges between in-RAM and spilled runs:\n--- ram ---\n%s\n--- spilled ---\n%s", key, want[key], got[key])
		}
	}
	// HotLoadReferrals scans the traffic ledger, so it exercises the
	// spilled EachTraffic decode path end to end.
	if a, b := ramRun.HotLoadReferrals(), spillRun.HotLoadReferrals(); a != b {
		t.Errorf("HotLoadReferrals: ram %d, spilled %d", a, b)
	}
	if a, b := ram.Net.TrafficLen(), spilled.Net.TrafficLen(); a != b {
		t.Errorf("TrafficLen: ram %d, spilled %d", a, b)
	}
	if store.Size() <= 8 {
		t.Error("evidence store stayed empty — nothing spilled")
	}
	if spillRun.Errors != ramRun.Errors {
		t.Errorf("Errors: ram %d, spilled %d", ramRun.Errors, spillRun.Errors)
	}
}

// TestEvidenceStoreStripsVisits checks that a slice-backed spilled run hands
// back analyses whose bulky evidence has moved to the store: Visits nil,
// handle valid, record readable.
func TestEvidenceStoreStripsVisits(t *testing.T) {
	c, err := dataset.Generate(dataset.Config{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	evPath := filepath.Join(t.TempDir(), "ev.bin")
	run, err := Analyze(context.Background(), c, WithWorkers(2), WithEvidencePath(evPath))
	if err != nil {
		t.Fatal(err)
	}
	store, err := evstore.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var spilled int
	for i, ma := range run.Analyses {
		if ma == nil {
			continue
		}
		if ma.Visits != nil {
			t.Fatalf("analysis %d retained %d visits after spill", i, len(ma.Visits))
		}
		if !ma.Evidence.Valid() {
			continue // messages with no URL never visit anything
		}
		kind, payload, err := store.At(ma.Evidence)
		if err != nil {
			t.Fatalf("analysis %d: reading evidence: %v", i, err)
		}
		if kind != evstore.KindAnalysis || len(payload) == 0 {
			t.Fatalf("analysis %d: kind=%d len=%d", i, kind, len(payload))
		}
		spilled++
	}
	if spilled == 0 {
		t.Fatal("no analysis spilled evidence")
	}
}

// TestAnalyzeBytesBudget holds a serial, spilling Analyze of the seed-42
// corpus (scale 0.05) to a budget of heap bytes allocated per message,
// corpus rendering included. Unlike timings, the figure repeats closely
// from run to run. The budget is the value measured when it was set (224
// KiB) plus about 10%. Parsing every page script afresh instead of through
// the pipeline's minijs.Cache, this run allocated 252 KiB per message;
// with an escaper built per call and each screenshot copied twice into the
// spill as well, it allocated 504 KiB.
func TestAnalyzeBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budgetKiB = 247
	c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	evPath := filepath.Join(t.TempDir(), "ev.bin")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := Analyze(context.Background(), c, WithWorkers(1), WithEvidencePath(evPath))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if run.Errors != 0 {
		t.Fatalf("%d analysis errors", run.Errors)
	}
	perMsg := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(c.Len())
	t.Logf("report.Analyze: %.1f KiB allocated per message over %d messages (budget %d KiB)", perMsg, c.Len(), budgetKiB)
	if perMsg > budgetKiB {
		t.Errorf("report.Analyze: %.1f KiB/msg exceeds the budget of %d KiB", perMsg, budgetKiB)
	}
}
