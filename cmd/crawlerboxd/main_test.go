package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/ingest"
)

// TestRecordReplayDeterminism drives the CLI end to end: record a canned
// ingest log from the corpus, replay it at two worker counts, and require
// byte-identical verdict streams and counter lines.
func TestRecordReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "canned.ingestlog")

	var buf bytes.Buffer
	if err := run([]string{"-record", logPath, "-n", "30", "-scale", "0.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recorded 30 specs") {
		t.Fatalf("record output: %s", buf.String())
	}

	replay := func(workers string) (string, string) {
		out := filepath.Join(dir, "stream-"+workers+".jsonl")
		var rbuf bytes.Buffer
		if err := run([]string{"-replay", logPath, "-out", out, "-scale", "0.1", "-workers", workers}, &rbuf); err != nil {
			t.Fatal(err)
		}
		stream, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(stream), rbuf.String()
	}
	stream1, stats1 := replay("1")
	stream8, stats8 := replay("8")
	if stream1 != stream8 {
		t.Fatal("verdict streams differ between -workers 1 and -workers 8")
	}
	if stats1 != stats8 {
		t.Fatalf("counter lines differ:\n%s\n%s", stats1, stats8)
	}
	if lines := strings.Count(stream1, "\n"); lines != 30 {
		t.Fatalf("stream has %d lines, want 30", lines)
	}
	if !strings.Contains(stats1, `"submitted":30`) {
		t.Fatalf("counters line: %s", stats1)
	}
}

// releasableAnalyzer blocks every analysis until Release, so the API tests
// can observe in-flight state without sleeping.
type releasableAnalyzer struct {
	release chan struct{}
	once    sync.Once
}

func (a *releasableAnalyzer) Analyze(ctx context.Context, spec crawlerbox.MessageSpec) (*crawlerbox.MessageAnalysis, error) {
	select {
	case <-a.release:
	case <-ctx.Done():
	}
	return nil, ctx.Err()
}

func (a *releasableAnalyzer) Release() { a.once.Do(func() { close(a.release) }) }

// corpusMaxRaw is the raw size of the largest paper-scale message across
// seeds 42, 7 and 701; a submission that size must be accepted.
const corpusMaxRaw = 112048

// TestDaemonAPI drives every HTTP endpoint through httptest: accept
// (including a corpus-size message), dedup, overload shedding, oversized
// and malformed bodies, verdict lookup before and after completion, and
// the draining refusal.
func TestDaemonAPI(t *testing.T) {
	ra := &releasableAnalyzer{release: make(chan struct{})}
	keyer := func(raw []byte) string { return string(raw) }
	logPath := filepath.Join(t.TempDir(), "journal.log")
	journal, err := ingest.CreateLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	svc := ingest.NewService(ra, keyer, journal,
		ingest.WithWorkers(1), ingest.WithMaxPending(2))
	svc.Start(context.Background())
	ts := httptest.NewServer(daemonMux(svc))
	defer ts.Close()

	submit := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/api/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	get := func(path string, wantStatus int) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, buf.String())
		}
		return buf.String()
	}
	rawA := `"` + "YQ==" + `"` // base64 "a"
	rawC := `"` + "Yw==" + `"` // base64 "c"
	// base64 JSON strings of n raw bytes: corpus-size, and past the cap.
	rawOfSize := func(n int) string {
		return `"` + base64.StdEncoding.EncodeToString(bytes.Repeat([]byte("x"), n)) + `"`
	}
	rawBig, rawHuge := rawOfSize(corpusMaxRaw), rawOfSize(maxSubmitBytes)

	if resp := submit(`{"id":1,"raw":` + rawBig + `}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 (corpus-size): status %d", resp.StatusCode)
	}
	// Same key: admitted as a waiter on the in-flight analysis.
	if resp := submit(`{"id":2,"raw":` + rawBig + `}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", resp.StatusCode)
	}
	// Admission control: two pending is the limit.
	if resp := submit(`{"id":3,"raw":` + rawC + `}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit 3: status %d, want 503", resp.StatusCode)
	}
	// Oversized and malformed submissions.
	if resp := submit(`{"id":5,"raw":` + rawHuge + `}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if resp := submit(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", resp.StatusCode)
	}
	if resp := submit(`{"id":0,"raw":` + rawA + `}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero id: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET submit: status %d", resp.StatusCode)
	}

	stats := get("/api/stats", http.StatusOK)
	var parsed struct {
		Counters ingest.Counters `json:"counters"`
		Pending  int             `json:"pending"`
	}
	if err := json.Unmarshal([]byte(stats), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Counters.Submitted != 2 || parsed.Counters.CacheHits != 1 ||
		parsed.Counters.Rejected != 1 || parsed.Pending != 2 {
		t.Fatalf("stats = %s", stats)
	}

	get("/api/verdict?id=1", http.StatusNotFound) // still in flight
	get("/api/verdict?id=zero", http.StatusBadRequest)

	ra.Release()
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	// Only the two accepted specs were journaled: neither the shed nor the
	// oversized submission reached the log.
	state, err := ingest.ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Specs) != 2 || state.Specs[0].ID != 1 || state.Specs[1].ID != 2 ||
		len(state.Specs[0].Raw) != corpusMaxRaw {
		t.Fatalf("journaled %d specs, want ids 1 and 2 (%d raw bytes)", len(state.Specs), corpusMaxRaw)
	}

	if got := get("/api/verdict?id=1", http.StatusOK); !strings.Contains(got, `"provenance": "fresh"`) {
		t.Errorf("verdict 1:\n%s", got)
	}
	got := get("/api/verdict?id=2", http.StatusOK)
	if !strings.Contains(got, `"provenance": "cached"`) || !strings.Contains(got, `"cached_from": 1`) {
		t.Errorf("verdict 2:\n%s", got)
	}
	if resp := submit(`{"id":4,"raw":` + rawC + `}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if got := get("/", http.StatusOK); !strings.Contains(got, "/api/submit") {
		t.Errorf("index page:\n%s", got)
	}
}
