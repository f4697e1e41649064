// Command crawlerbox runs the analysis pipeline over .eml files.
//
// Messages can reference hosts that only exist inside the bundled simulated
// world, so the tool first generates a corpus world (whose sites stay
// deployed) and then analyzes either the corpus's own messages or .eml
// files from a directory produced by mkdataset.
//
// Usage:
//
//	crawlerbox [-dir DIR] [-seed N] [-scale F] [-n N] [-workers N]
//	           [-trace FILE] [-metrics FILE] [-faults F] [-retry-max N]
//	           [-breaker-threshold N] [-evidence FILE] [-tracestore FILE]
//
// -trace writes one JSONL span record per line (virtual-time timestamps,
// byte-identical for any -workers value); -metrics writes a Prometheus text
// dump. Render either with cmd/obsreport. -faults injects seeded transient
// network faults recovered through virtual-clock retries and per-host
// circuit breakers (tune with -retry-max and -breaker-threshold).
// -evidence spills bulky evidence (visit records, logged traffic) to an
// append-only store instead of holding it in RAM; the printed summary
// lines are byte-identical either way. -tracestore writes the triage index
// (span trees, verdict evidence, metrics) as one canonical segment; query
// it, render checklists, and re-adjudicate verdicts with `obsreport
// -store FILE` or the `obsreport -serve` HTTP triage server.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crawlerbox/internal/climain"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/ingest"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/tracestore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crawlerbox:", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("dir", "", "directory of .eml files (default: analyze the generated corpus directly)")
	seed := flag.Int64("seed", 42, "world/corpus seed (must match mkdataset for -dir)")
	scale := flag.Float64("scale", 0.1, "world/corpus scale (must match mkdataset for -dir)")
	limit := flag.Int("n", 10, "maximum messages to analyze (0 = all)")
	shared := climain.Register(flag.CommandLine)
	flag.Parse()

	// Stream, not Generate: the world (sites, DNS, brand pages) deploys
	// either way, but message bytes render lazily one at a time, so the
	// corpus never sits fully materialized in RAM.
	corpus, err := dataset.Stream(dataset.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	pipe := crawlerbox.New(corpus.Net, corpus.Registry)
	observer := shared.Observer()
	var tstore *tracestore.Writer
	if *shared.TraceStore != "" {
		if tstore, err = tracestore.Create(*shared.TraceStore); err != nil {
			return err
		}
		defer tstore.Close()
		if observer == nil {
			// The triage index persists span trees and metrics, so it
			// needs an observer even without -trace / -metrics.
			observer = obs.New()
		}
	}
	if observer != nil {
		pipe.Obs = observer
		corpus.Net.Metrics = observer.Metrics
	}
	pipe.Resilience = shared.Policy()
	var store *evstore.Store
	if *shared.Evidence != "" {
		if store, err = evstore.Create(*shared.Evidence); err != nil {
			return err
		}
		defer store.Close()
		corpus.Net.SpillTrafficTo(store)
	}
	for _, b := range phishkit.StudyBrands {
		if err := pipe.AddReference(context.Background(), b.Name, corpus.BrandURLs[b.Name]); err != nil {
			return err
		}
	}
	corpus.Net.Clock.Set(time.Date(2024, 11, 1, 0, 0, 0, 0, time.UTC))

	// names labels each message's summary line, in message order.
	var names []string
	if *dir != "" {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".eml") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		if *limit > 0 && len(names) > *limit {
			names = names[:*limit]
		}
	} else {
		count := corpus.Len()
		if *limit > 0 && *limit < count {
			count = *limit
		}
		names = make([]string, count)
		for i := range names {
			names[i] = fmt.Sprintf("corpus-%05d", i)
		}
	}

	// Batch mode of the ingest service: no journal, no cache key, and a
	// sink that consumes each verdict as its worker completes it. Only the
	// one-line summaries are buffered (to restore message order), never
	// the messages.
	lines := make([]string, len(names))
	spillErrs := make([]error, max(*shared.Workers, 1))
	spillBufs := make([][]byte, len(spillErrs))
	svc := ingest.NewService(pipe, nil, nil, ingest.WithWorkers(*shared.Workers),
		ingest.WithSink(func(w int, e ingest.Emitted, ma *crawlerbox.MessageAnalysis) {
			i := int(e.ID - 1)
			tstore.Add(e.Verdict)
			// The summary line never reads Visits, so spilling first is
			// safe (verdict facts survive the spill).
			if err := crawlerbox.SpillEvidence(store, ma, &spillBufs[w]); err != nil && spillErrs[w] == nil {
				spillErrs[w] = err
			}
			lines[i] = resultLine(names[i], e, ma)
		}))
	svc.Start(context.Background())
	var submitErr error
	submit := func(i int, raw []byte) bool {
		submitErr = svc.Submit(context.Background(), ingest.Spec{ID: int64(i + 1), Raw: raw})
		return submitErr == nil
	}
	if *dir != "" {
		for i, name := range names {
			raw, err := os.ReadFile(filepath.Join(*dir, name))
			if err != nil {
				submitErr = err
				break
			}
			if !submit(i, raw) {
				break
			}
		}
	} else {
		// Corpus mode streams: messages render one at a time through
		// Corpus.Each, so the corpus never sits in RAM.
		corpus.Each(func(i int, m *dataset.Message) bool {
			return i < len(names) && submit(i, m.Raw)
		})
	}
	if _, err := svc.Drain(); err != nil {
		return err
	}
	if submitErr != nil {
		return submitErr
	}
	for _, err := range spillErrs {
		if err != nil {
			return err
		}
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	if tstore != nil {
		// Span trees and metrics from the observer join the buffered
		// verdict rows in one canonical segment.
		if err := tstore.Finalize(observer.Traces(), observer.Metrics.Snapshot()); err != nil {
			return err
		}
	}
	return shared.WriteExports(observer)
}

// resultLine formats one emission as the tool's summary line; ma is nil
// when the analysis failed.
func resultLine(name string, e ingest.Emitted, ma *crawlerbox.MessageAnalysis) string {
	if ma == nil {
		return fmt.Sprintf("%-16s ERROR %s", name, e.Verdict.Err)
	}
	line := fmt.Sprintf("%-16s %-20s urls=%d", name, ma.Outcome, len(ma.Parse.URLs))
	if ma.Outcome == crawlerbox.OutcomeError {
		line += " err=" + ma.ErrorKind.String()
	}
	if ma.SpearPhish {
		line += " spear[" + ma.Brand + "]"
	}
	if ma.Landing != nil {
		line += " landing=" + ma.Landing.Host
	}
	if cloaks := cloakSummary(ma); cloaks != "" {
		line += " cloaks={" + cloaks + "}"
	}
	return line
}

func cloakSummary(ma *crawlerbox.MessageAnalysis) string {
	c := ma.Cloaks
	var parts []string
	for _, kv := range []struct {
		name string
		on   bool
	}{
		{"turnstile", c.Turnstile}, {"recaptcha", c.ReCaptcha},
		{"token", c.TokenizedURL}, {"victim", c.VictimCheck},
		{"otp", c.OTPPrompt}, {"math", c.MathChallenge},
		{"console", c.ConsoleHijack}, {"debugger", c.DebuggerTimer},
		{"hue", c.HueRotate}, {"fpgate", c.FingerprintGate},
		{"faultyqr", ma.Parse.FaultyQR}, {"noise", ma.Parse.NoisePadded},
	} {
		if kv.on {
			parts = append(parts, kv.name)
		}
	}
	return strings.Join(parts, ",")
}
