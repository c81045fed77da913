package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bfast/internal/obs"
)

// TestStaleSpanHandlesAfterRelease: a span handle and its context kept
// past the end of their request must not touch the next request's
// trace, which records into the recycled state. The stale End, SetAttr
// and StartSpan leave that trace, clocks and request ID aside,
// byte-identical to a run without them. Outside -race the test checks
// that the second request did reuse the first one's pooled state.
func TestStaleSpanHandlesAfterRelease(t *testing.T) {
	s := mustServer(t, Config{TraceDepth: 4})
	var (
		keptCtx context.Context
		kept    *obs.Span
		keptTr  *obs.Trace
		stale   bool
		lastTr  *obs.Trace
	)
	h := s.endpoint("probe", http.MethodPost, false, func(ctx context.Context, _ *http.Request, tr *obs.Trace) (any, *apiError) {
		lastTr = tr
		if kept == nil {
			keptCtx, kept = obs.StartSpan(ctx, "kept")
			keptTr = tr
			return map[string]int{"ok": 1}, nil
		}
		wctx, work := obs.StartSpan(ctx, "work")
		work.SetAttr("n", 7)
		if stale {
			kept.SetAttr("stale", 1)
			kept.End()
			_, orphan := obs.StartSpan(keptCtx, "orphan")
			orphan.SetAttr("stale", 2)
			orphan.End()
		}
		_, inner := obs.StartSpan(wctx, "inner")
		inner.End()
		work.End()
		return map[string]int{"ok": 2}, nil
	})
	serve := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		traces := s.Traces()
		return normalizedTrace(t, traces[len(traces)-1])
	}
	for attempt := 0; ; attempt++ {
		kept, stale = nil, false
		serve() // keeps its child span and context
		want := serve()
		stale = true
		if got := serve(); got != want {
			t.Fatalf("stale handles changed the next trace:\n got %s\nwant %s", got, want)
		}
		if raceEnabled || lastTr == keptTr {
			break
		}
		if attempt == 20 {
			t.Fatal("the second request never reused the first one's pooled trace")
		}
	}
}

// normalizedTrace is tr's JSON with its clocks and request ID zeroed.
func normalizedTrace(t *testing.T, tr obs.Trace) string {
	t.Helper()
	tr.RequestID, tr.Start, tr.Total = "", time.Time{}, 0
	for i := range tr.Spans {
		tr.Spans[i].StartNs, tr.Spans[i].EndNs = 0, 0
	}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTracesSurviveRingWrap: the ring overwrites its slots in place, so
// what it hands out — Server.Traces(), a trace looked up by request ID,
// the flight bundle's traces_ring.json — must be copies that stay as
// they were after 2×TraceDepth more requests.
func TestTracesSurviveRingWrap(t *testing.T) {
	const depth = 4
	s := mustServer(t, Config{TraceDepth: depth, Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(s)
	defer ts.Close()
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < depth; i++ {
		resp, body := postWithHeaders(t, ts, "/v1/batch", batchBody(rng, 1+i, 60),
			map[string]string{HeaderRequestID: "wrap-" + string(rune('a'+i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, body)
		}
	}
	recent := s.Traces()
	found, ok := s.ring.Find("wrap-b")
	if !ok {
		t.Fatal("wrap-b is not in the ring")
	}
	_, byID := get(t, ts, "/debug/bfast/traces?request_id=wrap-b")
	before, err := json.Marshal([]any{recent, found})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(before, bytes.TrimSpace(byID)) {
		t.Fatalf("/debug/bfast/traces?request_id= disagrees with the ring:\n%s\n%s", byID, before)
	}
	ringJSON := flightMember(t, ts, "traces_ring.json")
	var bundled []obs.Trace
	if err := json.Unmarshal(ringJSON, &bundled); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, bundled), mustJSON(t, recent); a != b {
		t.Fatalf("traces_ring.json disagrees with the ring:\n%s\n%s", a, b)
	}

	// Detect requests record other spans into the same slots.
	for i := 0; i < 2*depth; i++ {
		resp, body := post(t, ts, "/v1/detect", map[string]any{"series": jsonSeries(rng, 60, -1, 0.2), "history": 30})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect status %d: %s", resp.StatusCode, body)
		}
	}
	if _, ok := s.ring.Find("wrap-b"); ok {
		t.Fatal("the ring did not wrap")
	}
	after, _ := json.Marshal([]any{recent, found})
	if !bytes.Equal(before, after) {
		t.Fatalf("traces read from the ring changed as it wrapped:\n%s\n%s", before, after)
	}
	if a, b := mustJSON(t, bundled), mustJSON(t, recent); a != b {
		t.Fatalf("traces_ring.json no longer matches what the ring handed out:\n%s\n%s", a, b)
	}
}

// flightMember downloads the flight bundle and returns one member.
func flightMember(t *testing.T, ts *httptest.Server, name string) []byte {
	t.Helper()
	resp, body := get(t, ts, "/debug/bfast/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight: %d %s", resp.StatusCode, body)
	}
	gz, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err != nil {
			t.Fatalf("flight bundle has no %s: %v", name, err)
		}
		if hdr.Name == name {
			b, err := io.ReadAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkServeBatchSmall serves a warm, traced 1-px /v1/batch
// (n = 228, the ledger's serve-small length) through ServeHTTP and
// reports what each call allocates. One request is rewound and served
// again, so only the server's own allocation is counted.
func BenchmarkServeBatchSmall(b *testing.B) {
	raw, err := json.Marshal(batchBody(rand.New(rand.NewSource(48)), 1, 228))
	if err != nil {
		b.Fatal(err)
	}
	s := mustServer(b, Config{})
	body := bytes.NewReader(raw)
	rc := io.NopCloser(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	req.ContentLength = int64(len(raw))
	w := &statusWriter{discardWriter: discardWriter{h: http.Header{}}}
	serve := func() {
		body.Reset(raw)
		req.Body = rc
		s.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK {
		b.Fatalf("status %d", w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
