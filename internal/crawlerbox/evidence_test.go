package crawlerbox

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/imaging"
)

func sampleVisits() []VisitRecord {
	shot := imaging.MustNew(8, 6, imaging.RGB{R: 10, G: 20, B: 30})
	shot.Set(3, 2, imaging.RGB{R: 200, G: 100, B: 50})
	return []VisitRecord{
		{
			URL: "https://phish.example/login",
			Result: &browser.Result{
				RequestedURL: "https://phish.example/login",
				FinalURL:     "https://landing.example/portal",
				Status:       200,
				HTML:         "<html><title>Sign in</title></html>",
				Screenshot:   shot,
				Console:      []string{"warn: mixed content"},
				Scripts:      []string{"fp.js"},
				ScriptErrors: []string{"ReferenceError: chrome"},
				Navigations:  []string{"https://phish.example/login", "https://landing.example/portal"},
				Requests: []browser.RequestRecord{
					{URL: "https://landing.example/portal", Method: "GET", Initiator: "document", Status: 200},
					{URL: "https://cdn.example/fp.js", Method: "GET", Initiator: "script", Referer: "https://landing.example/portal", Status: 404, Err: "not found"},
				},
				DebuggerHits: 2,
				Degraded:     true,
			},
		},
		{URL: "https://dead.example/", Err: errors.New("webnet: NXDOMAIN")},
		{URL: "https://empty.example/", Result: &browser.Result{Status: 204}},
	}
}

func TestEvidenceRoundTrip(t *testing.T) {
	visits := sampleVisits()
	got, err := DecodeEvidence(EncodeEvidence(visits))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(visits) {
		t.Fatalf("decoded %d visits, want %d", len(got), len(visits))
	}
	for i, ev := range got {
		v := visits[i]
		if ev.URL != v.URL {
			t.Errorf("visit %d: URL %q want %q", i, ev.URL, v.URL)
		}
		wantErr := ""
		if v.Err != nil {
			wantErr = v.Err.Error()
		}
		if ev.Err != wantErr {
			t.Errorf("visit %d: Err %q want %q", i, ev.Err, wantErr)
		}
		if ev.Missing != (v.Result == nil) {
			t.Errorf("visit %d: Missing=%v", i, ev.Missing)
		}
		if v.Result == nil {
			continue
		}
		r := v.Result
		if ev.RequestedURL != r.RequestedURL || ev.FinalURL != r.FinalURL ||
			ev.Status != r.Status || ev.HTML != r.HTML ||
			ev.DebuggerHits != r.DebuggerHits || ev.Degraded != r.Degraded {
			t.Errorf("visit %d: scalar fields differ: %+v", i, ev)
		}
		if !reflect.DeepEqual(ev.Console, r.Console) || !reflect.DeepEqual(ev.Scripts, r.Scripts) ||
			!reflect.DeepEqual(ev.ScriptErrors, r.ScriptErrors) || !reflect.DeepEqual(ev.Navigations, r.Navigations) {
			t.Errorf("visit %d: string slices differ", i)
		}
		if len(ev.Requests) != len(r.Requests) {
			t.Fatalf("visit %d: %d requests, want %d", i, len(ev.Requests), len(r.Requests))
		}
		for j := range r.Requests {
			if ev.Requests[j] != r.Requests[j] {
				t.Errorf("visit %d request %d: %+v want %+v", i, j, ev.Requests[j], r.Requests[j])
			}
		}
		if r.Screenshot == nil {
			if ev.Screenshot != nil {
				t.Errorf("visit %d: unexpected screenshot bytes", i)
			}
			continue
		}
		img, err := imaging.DecodeCBI(ev.Screenshot)
		if err != nil {
			t.Fatalf("visit %d: screenshot decode: %v", i, err)
		}
		if !img.Equal(r.Screenshot) {
			t.Errorf("visit %d: screenshot pixels differ", i)
		}
	}
}

func TestDecodeEvidenceRejectsGarbage(t *testing.T) {
	for _, payload := range [][]byte{nil, {0x7F}, {evidenceVersion}, {evidenceVersion, 0x05, 0x01}} {
		if _, err := DecodeEvidence(payload); err == nil {
			t.Errorf("DecodeEvidence(%v) accepted garbage", payload)
		}
	}
	// A valid empty evidence record decodes to zero visits.
	got, err := DecodeEvidence(EncodeEvidence(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty evidence: %v, %d visits", err, len(got))
	}
}

func TestSpillEvidence(t *testing.T) {
	store, err := evstore.Create(filepath.Join(t.TempDir(), "ev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ma := &MessageAnalysis{Visits: sampleVisits(), Outcome: OutcomeActivePhish}
	wantPayload := EncodeEvidence(ma.Visits)
	if err := SpillEvidence(store, ma, new([]byte)); err != nil {
		t.Fatal(err)
	}
	if ma.Visits != nil {
		t.Fatal("spill left Visits resident")
	}
	if !ma.Evidence.Valid() {
		t.Fatalf("spill produced invalid handle %+v", ma.Evidence)
	}
	kind, payload, err := store.At(ma.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if kind != evstore.KindAnalysis || !bytes.Equal(payload, wantPayload) {
		t.Fatalf("stored record kind=%d len=%d, want analysis/%d", kind, len(payload), len(wantPayload))
	}
	loaded, err := LoadEvidence(store, ma.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 || loaded[0].FinalURL != "https://landing.example/portal" {
		t.Fatalf("loaded evidence mismatch: %+v", loaded)
	}

	// Spilling an analysis without visits is a no-op.
	empty := &MessageAnalysis{}
	if err := SpillEvidence(store, empty, new([]byte)); err != nil {
		t.Fatal(err)
	}
	if empty.Evidence.Valid() {
		t.Fatal("no-visit spill produced a handle")
	}
	// So is spilling to a nil store.
	withVisits := &MessageAnalysis{Visits: sampleVisits()}
	if err := SpillEvidence(nil, withVisits, new([]byte)); err != nil {
		t.Fatal(err)
	}
	if withVisits.Visits == nil {
		t.Fatal("nil-store spill dropped Visits")
	}
}

// referenceEncodeEvidence is the evidence encoder before AppendEvidence,
// kept as the byte-identity reference: each screenshot went through
// imaging.EncodeCBI into a fresh slice and was then copied into the
// payload by referenceAppendBytes.
func referenceEncodeEvidence(visits []VisitRecord) []byte {
	buf := []byte{evidenceVersion}
	buf = binary.AppendUvarint(buf, uint64(len(visits)))
	for i := range visits {
		buf = referenceAppendVisit(buf, &visits[i])
	}
	return buf
}

func referenceAppendVisit(buf []byte, v *VisitRecord) []byte {
	buf = appendString(buf, v.URL)
	errText := ""
	if v.Err != nil {
		errText = v.Err.Error()
	}
	buf = appendString(buf, errText)
	res := v.Result
	buf = appendBool(buf, res == nil)
	if res == nil {
		return buf
	}
	buf = appendString(buf, res.RequestedURL)
	buf = appendString(buf, res.FinalURL)
	buf = binary.AppendUvarint(buf, uint64(res.Status))
	buf = appendString(buf, res.HTML)
	var shot []byte
	if res.Screenshot != nil {
		shot = referenceEncodeCBI(res.Screenshot)
	}
	buf = referenceAppendBytes(buf, shot)
	buf = appendStrings(buf, res.Console)
	buf = appendStrings(buf, res.Scripts)
	buf = appendStrings(buf, res.ScriptErrors)
	buf = appendStrings(buf, res.Navigations)
	buf = binary.AppendUvarint(buf, uint64(len(res.Requests)))
	for _, r := range res.Requests {
		buf = appendString(buf, r.URL)
		buf = appendString(buf, r.Method)
		buf = appendString(buf, r.Initiator)
		buf = appendString(buf, r.Referer)
		buf = binary.AppendUvarint(buf, uint64(r.Status))
		buf = appendString(buf, r.Err)
	}
	buf = binary.AppendUvarint(buf, uint64(res.DebuggerHits))
	buf = appendBool(buf, res.Degraded)
	return buf
}

// referenceEncodeCBI is imaging.EncodeCBI before AppendCBI.
func referenceEncodeCBI(img *imaging.Image) []byte {
	out := make([]byte, 0, 12+3*len(img.Pix))
	out = append(out, imaging.CBIMagic...)
	var dims [8]byte
	binary.BigEndian.PutUint32(dims[0:4], uint32(img.W))
	binary.BigEndian.PutUint32(dims[4:8], uint32(img.H))
	out = append(out, dims[:]...)
	for _, p := range img.Pix {
		out = append(out, p.R, p.G, p.B)
	}
	return out
}

func referenceAppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// checkEncodeMatchesReference asserts that EncodeEvidence, and
// AppendEvidence into a non-empty buffer, produce the reference bytes.
func checkEncodeMatchesReference(t *testing.T, name string, visits []VisitRecord) {
	t.Helper()
	want := referenceEncodeEvidence(visits)
	if got := EncodeEvidence(visits); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeEvidence gives %d bytes that differ from the reference's %d", name, len(got), len(want))
	}
	prefix := []byte("prefix")
	got := AppendEvidence(prefix, visits)
	if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: AppendEvidence after a prefix does not give prefix + reference", name)
	}
}

// TestEvidenceMatchesReference pins that the single-copy encoder writes
// the same bytes as the reference encoder, on edge cases and on every
// message of the seed-42 corpus (scale 0.1).
func TestEvidenceMatchesReference(t *testing.T) {
	sample := sampleVisits()
	noShot := sampleVisits()[:1]
	res := *noShot[0].Result
	res.Screenshot = nil
	noShot[0].Result = &res
	for _, tc := range []struct {
		name   string
		visits []VisitRecord
	}{
		{"sample", sample},
		{"nil screenshot", noShot},
		{"missing result", []VisitRecord{{URL: "https://gone.example/", Err: errors.New("webnet: NXDOMAIN")}}},
		{"zero visits", nil},
		{"empty visits", []VisitRecord{}},
	} {
		checkEncodeMatchesReference(t, tc.name, tc.visits)
	}

	var visits, shots int
	for i, vs := range corpusVisits(t) {
		checkEncodeMatchesReference(t, fmt.Sprintf("corpus message %d", i), vs)
		for _, v := range vs {
			visits++
			if v.Result != nil && v.Result.Screenshot != nil {
				shots++
			}
		}
	}
	if shots == 0 {
		t.Fatalf("no screenshot among %d corpus visits: the corpus no longer exercises the raster path", visits)
	}
	t.Logf("%d corpus visits, %d with screenshots", visits, shots)
}

// TestSpillReusesScratch spills two different messages through one
// scratch buffer and reads both back: the store must hold each message's
// own payload, not whatever the buffer held last.
func TestSpillReusesScratch(t *testing.T) {
	store, err := evstore.Create(filepath.Join(t.TempDir(), "ev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	first := &MessageAnalysis{Visits: sampleVisits()}
	// The second message is shorter than the first, so it is encoded into
	// the start of the buffer the first one grew.
	second := &MessageAnalysis{Visits: sampleVisits()[1:]}
	wantFirst, wantSecond := EncodeEvidence(first.Visits), EncodeEvidence(second.Visits)

	var scratch []byte
	if err := SpillEvidence(store, first, &scratch); err != nil {
		t.Fatal(err)
	}
	grown := &scratch[0]
	if err := SpillEvidence(store, second, &scratch); err != nil {
		t.Fatal(err)
	}
	if &scratch[0] != grown {
		t.Error("the second spill did not reuse the scratch buffer")
	}
	for _, m := range []struct {
		name string
		ma   *MessageAnalysis
		want []byte
	}{{"first", first, wantFirst}, {"second", second, wantSecond}} {
		_, payload, err := store.At(m.ma.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, m.want) {
			t.Errorf("%s message: stored payload differs from its EncodeEvidence", m.name)
		}
		loaded, err := LoadEvidence(store, m.ma.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeEvidence(m.want)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded, want) {
			t.Errorf("%s message: LoadEvidence differs from its own encoding", m.name)
		}
	}
}
