package report

import (
	"context"
	"testing"

	"crawlerbox/internal/dataset"
)

// TestStreamedAnalyzeWorkerIndependent pins the streamed half of the
// determinism contract: a corpus built by dataset.Stream (no retained
// Analyses, aggregates served purely from merged shards) renders every
// artifact byte-identically at workers=1 and workers=8. Run under -race
// this also exercises the submit-loop/worker-shard handoff for data races.
func TestStreamedAnalyzeWorkerIndependent(t *testing.T) {
	renderAll := func(r *Run) []string {
		return []string{
			r.RenderDisposition(),
			r.RenderFigure2(),
			r.RenderTable2(),
			r.RenderFigure3(),
			r.RenderSpear(),
			r.RenderNonTargeted(),
			r.RenderCloaks(),
		}
	}
	analyze := func(workers int) []string {
		c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		run, err := Analyze(context.Background(), c, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if run.Analyses != nil {
			t.Fatalf("streamed run retained %d analyses", len(run.Analyses))
		}
		return renderAll(run)
	}

	serial := analyze(1)
	parallel := analyze(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("artifact %d diverges between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestAnalyzePreCancelled pins cancellation through the batch runner: a
// run whose context is cancelled before it starts analyzes nothing and
// counts every corpus message in Run.Errors, whether the message was never
// submitted or its analysis failed on the cancelled context.
func TestAnalyzePreCancelled(t *testing.T) {
	c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := Analyze(ctx, c, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if run.Errors != c.Len() {
		t.Fatalf("Run.Errors = %d, want %d (every message)", run.Errors, c.Len())
	}
}
