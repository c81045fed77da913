package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/obs"
)

// get issues a GET and returns the response with its body drained.
func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// postWithHeaders is post with extra request headers.
func postWithHeaders(t *testing.T, ts *httptest.Server, path string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func batchBody(rng *rand.Rand, m, n int) map[string]any {
	pixels := make([]Series, m)
	for i := range pixels {
		pixels[i] = jsonSeries(rng, n, n/2+10, 0.3)
	}
	return map[string]any{"pixels": pixels, "history": n / 2}
}

// TestRequestIDAndSpanTree is the PR's acceptance path: a batch request
// with a client X-Request-ID must echo the ID, and its trace — server
// root through the batched kernel phases — must be retrievable
// from /debug/bfast/traces under that ID.
func TestRequestIDAndSpanTree(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(41))

	const id = "corr-test-1234"
	resp, body := postWithHeaders(t, ts, "/v1/batch", batchBody(rng, 24, 120),
		map[string]string{HeaderRequestID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderRequestID); got != id {
		t.Fatalf("response %s = %q, want %q", HeaderRequestID, got, id)
	}

	tresp, tbody := get(t, ts, "/debug/bfast/traces?request_id="+id)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %d: %s", tresp.StatusCode, tbody)
	}
	var tr obs.Trace
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatalf("trace decode: %v: %s", err, tbody)
	}
	if tr.RequestID != id || tr.Endpoint != "batch" || tr.Code != http.StatusOK || tr.Pixels != 24 {
		t.Fatalf("trace fields: %+v", tr)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "server.batch" {
		t.Fatalf("trace root: %+v", tr.Spans)
	}
	for _, name := range []string{
		"decode", "detect", "encode",
		"core.detect_batch", "kernel.mask", "kernel.tiles", "sched.foreach",
	} {
		if findSpan(tr.Spans, -1, name) == nil {
			t.Fatalf("trace missing %q:\n%s", name, tbody)
		}
	}
	// The kernel spans hang under detect, not beside it.
	detect := findSpan(tr.Spans, -1, "detect")
	db := findSpan(tr.Spans, detect.ID, "core.detect_batch")
	if db == nil || findSpan(tr.Spans, db.ID, "kernel.tiles") == nil {
		t.Fatalf("kernel.tiles is not under detect → core.detect_batch:\n%s", tbody)
	}
	// The trace must answer "did this request share inverses?".
	tiles := spanAttrs(tr.Attrs, findSpan(tr.Spans, db.ID, "kernel.tiles").ID)
	for _, attr := range []string{"tiles", "mask_classes", "shared_pixels", "tiles_shared"} {
		if _, ok := tiles[attr]; !ok {
			t.Fatalf("kernel.tiles span missing %q:\n%s", attr, tbody)
		}
	}
	// detect must dominate decode+pack for a real batch; sanity-check
	// that durations are populated, not just names.
	if detect.EndNs <= detect.StartNs {
		t.Fatalf("detect span runs %d..%d", detect.StartNs, detect.EndNs)
	}
}

// TestObserveEncodeSpan: an observe's trace records on its encode span
// the bytes it wrote and the ranges it rendered them in, and a reply of
// several ranges runs its parallel loop under that span.
func TestObserveEncodeSpan(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	rng := rand.New(rand.NewSource(47))
	const history, px = 12, 2*replyRange + 5
	hist := make([]float64, px*history)
	for i := range hist {
		hist[i] = 0.5 + 0.01*rng.NormFloat64()
	}
	sum, err := s.nrtMgr.Fit(context.Background(), nrt.FitRequest{
		Options: core.DefaultOptions(history), Pixels: px, History: hist, Capacity: 2 * history,
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = "observe-encode-1"
	resp, body := postWithHeaders(t, ts, "/v1/observe",
		map[string]any{"session": sum.ID, "dates": []Series{jsonSeries(rng, px, -1, 0.2)}},
		map[string]string{HeaderRequestID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d: %s", resp.StatusCode, body)
	}
	tr, ok := s.ring.Find(id)
	if !ok {
		t.Fatalf("no trace for %s", id)
	}
	enc := findSpan(tr.Spans, -1, "encode")
	if enc == nil {
		t.Fatalf("observe trace has no encode span: %+v", tr.Spans)
	}
	a := spanAttrs(tr.Attrs, enc.ID)
	if got := a["bytes"]; got != int64(len(body)) {
		t.Fatalf("encode bytes = %v, body is %d bytes", got, len(body))
	}
	if got := a["ranges"]; got != 3 {
		t.Fatalf("encode ranges = %v, want 3 for %d verdicts", got, px)
	}
	if findSpan(tr.Spans, enc.ID, "sched.foreach") == nil {
		t.Fatalf("encode span has no sched.foreach child: %+v", tr.Spans)
	}
}

// TestRequestIDGenerated: without a client ID the server must mint one
// (8 random bytes, hex); oversized client IDs are replaced, not echoed.
func TestRequestIDGenerated(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(42))
	body := map[string]any{"series": jsonSeries(rng, 60, -1, 0.2), "history": 30}

	resp, _ := post(t, ts, "/v1/detect", body)
	id := resp.Header.Get(HeaderRequestID)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated request id %q, want 16 hex chars", id)
	}

	resp, _ = postWithHeaders(t, ts, "/v1/detect", body,
		map[string]string{HeaderRequestID: strings.Repeat("x", 200)})
	if got := resp.Header.Get(HeaderRequestID); len(got) > maxRequestIDLen {
		t.Fatalf("oversized client id echoed back (%d chars)", len(got))
	}
}

// TestTracesEndpoint: the unfiltered listing returns recent traces;
// unknown request IDs return 404 with the structured error envelope.
func TestTracesEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(43))
	post(t, ts, "/v1/detect", map[string]any{"series": jsonSeries(rng, 60, -1, 0.2), "history": 30})

	resp, body := get(t, ts, "/debug/bfast/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var listing struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(body, &listing); err != nil || len(listing.Traces) == 0 {
		t.Fatalf("traces listing: %v: %s", err, body)
	}

	resp, body = get(t, ts, "/debug/bfast/traces?request_id=never-seen")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status %d: %s", resp.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeNotFound {
		t.Fatalf("unknown id code %q, want %q", e.Code, CodeNotFound)
	}
}

// TestTracingDisabledSkipsSpans: TraceDepth < 0 turns the ring off, and
// with it the root span — requests still serve, with no span machinery.
func TestTracingDisabledSkipsSpans(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{TraceDepth: -1}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(44))
	resp, body := post(t, ts, "/v1/batch", batchBody(rng, 8, 80))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderRequestID) == "" {
		t.Fatal("request id must be issued even with tracing off")
	}
}

// TestTracedRequestAllocs bounds what a warm 1-px /v1/batch (n = 228,
// the ledger's serve-small length) allocates through ServeHTTP: under
// 3 KB in all with the trace ring on (TraceDepth 0, the default), and
// under 1 KB more than with it off, since the trace's recorder and
// record come from a pool. The requests are built before each measured
// round, so httptest is not counted, and each configuration keeps the
// least of three rounds, so a collection that empties the pools in one
// round does not count against either side.
func TestTracedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	body, err := json.Marshal(batchBody(rand.New(rand.NewSource(48)), 1, 228))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 2000
	reqs := make([]*http.Request, runs)
	perRequest := func(s *Server) uint64 {
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		}
		w := &statusWriter{discardWriter: discardWriter{h: http.Header{}}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range reqs {
			s.ServeHTTP(w, r)
		}
		runtime.ReadMemStats(&after)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	traced := mustServer(t, Config{TraceDepth: 0})
	untraced := mustServer(t, Config{TraceDepth: -1})
	perRequest(traced)
	perRequest(untraced)
	on, off := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		on = min(on, perRequest(traced))
		off = min(off, perRequest(untraced))
	}
	t.Logf("traced %d B, untraced %d B a request: tracing costs %d B", on, off, int64(on)-int64(off))
	if cost := int64(on) - int64(off); cost >= 1<<10 {
		t.Fatalf("traced request allocates %d B, untraced %d B: tracing costs %d B, want < 1024", on, off, cost)
	}
	if on >= 3<<10 {
		t.Fatalf("a warm traced 1-px call allocates %d B, want < 3072", on)
	}
}

// TestMetricsPrometheusNegotiation: the server's /metrics must serve the
// Prometheus text format under Accept: text/plain and keep JSON the
// default — including the serving metrics with cumulative buckets.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(mustServer(t, Config{Metrics: reg}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(45))
	post(t, ts, "/v1/detect", map[string]any{"series": jsonSeries(rng, 60, -1, 0.2), "history": 30})

	resp, body := get(t, ts, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default /metrics content type %q", ct)
	}
	var flat map[string]any
	if err := json.Unmarshal(body, &flat); err != nil {
		t.Fatalf("JSON metrics: %v", err)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(presp.Body)
	text := buf.String()
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE server_detect_requests counter",
		"# TYPE server_detect_latency_ms histogram",
		`server_detect_latency_ms_bucket{le="+Inf"} 1`,
		"server_detect_latency_ms_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRequestLogging: a configured logger receives one structured line
// per request, carrying the request ID and a level matching the outcome.
func TestRequestLogging(t *testing.T) {
	var logBuf bytes.Buffer
	lg, err := obs.NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustServer(t, Config{Logger: lg}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(46))

	postWithHeaders(t, ts, "/v1/detect",
		map[string]any{"series": jsonSeries(rng, 60, -1, 0.2), "history": 30},
		map[string]string{HeaderRequestID: "log-ok"})
	postWithHeaders(t, ts, "/v1/detect", map[string]any{"history": 30},
		map[string]string{HeaderRequestID: "log-bad"})

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2: %s", len(lines), logBuf.String())
	}
	var ok, bad map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ok); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &bad); err != nil {
		t.Fatal(err)
	}
	if ok["request_id"] != "log-ok" || ok["level"] != "INFO" || ok["endpoint"] != "detect" {
		t.Fatalf("ok line: %v", ok)
	}
	if bad["request_id"] != "log-bad" || bad["level"] != "WARN" || bad["err"] != CodeInvalidArgument {
		t.Fatalf("bad line: %v", bad)
	}
}

// TestRequestLogLine pins the request log line to the bytes of the
// line the endpoint used to write — a logger carrying request_id and
// endpoint (Logger.With) logging the rest as loose key-value pairs — in
// both handler formats, time stripped, and checks that a disabled level
// allocates nothing.
func TestRequestLogLine(t *testing.T) {
	noTime := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	handlers := map[string]func(io.Writer) slog.Handler{
		"text": func(w io.Writer) slog.Handler {
			return slog.NewTextHandler(w, &slog.HandlerOptions{ReplaceAttr: noTime})
		},
		"json": func(w io.Writer) slog.Handler {
			return slog.NewJSONHandler(w, &slog.HandlerOptions{ReplaceAttr: noTime})
		},
	}
	traces := []obs.Trace{
		{RequestID: "r-1", Code: 200, Pixels: 4, Bytes: 1234, Total: 1500 * time.Microsecond},
		{RequestID: "r 2 \"q\"", Code: 400, Err: CodeInvalidArgument, Bytes: -1, Total: time.Millisecond},
		{RequestID: "r-3", Code: 503, Err: CodeUnavailable, Pixels: 8192, Session: "s-0123456789abcdef", Total: 2 * time.Second},
		{RequestID: "<r&4>", Code: 404, Err: CodeNotFound, Session: "a=b c"},
	}
	ctx := context.Background()
	for format, handler := range handlers {
		for _, tr := range traces {
			var want, got bytes.Buffer
			level := slog.LevelInfo
			switch {
			case tr.Code >= 500:
				level = slog.LevelError
			case tr.Code >= 400:
				level = slog.LevelWarn
			}
			attrs := []any{"code", tr.Code, "err", tr.Err, "pixels", tr.Pixels, "bytes", tr.Bytes, "duration", tr.Total}
			if tr.Session != "" {
				attrs = append(attrs, "session", tr.Session)
			}
			slog.New(handler(&want)).With("request_id", tr.RequestID, "endpoint", "observe").
				Log(ctx, level, "request served", attrs...)
			logRequest(ctx, slog.New(handler(&got)), "observe", &tr)
			if got.String() != want.String() {
				t.Errorf("%s: got\n%s\nwant\n%s", format, got.String(), want.String())
			}
		}
	}
	quiet := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	for _, lg := range []*slog.Logger{quiet, obs.NopLogger()} {
		if n := testing.AllocsPerRun(100, func() { logRequest(ctx, lg, "observe", &traces[0]) }); n != 0 {
			t.Errorf("a disabled level allocated %v times, want 0", n)
		}
	}
}

// TestPprofBehindFlag: /debug/pprof/ must 404 by default and serve the
// index when EnablePprof is set.
func TestPprofBehindFlag(t *testing.T) {
	off := httptest.NewServer(mustServer(t, Config{}))
	defer off.Close()
	if resp, _ := get(t, off, "/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(mustServer(t, Config{EnablePprof: true}))
	defer on.Close()
	resp, body := get(t, on, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof on: status %d body %q", resp.StatusCode, body[:min(len(body), 80)])
	}

	// DisableDebug wins over EnablePprof.
	both := httptest.NewServer(mustServer(t, Config{EnablePprof: true, DisableDebug: true}))
	defer both.Close()
	if resp, _ := get(t, both, "/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DisableDebug must win: status %d", resp.StatusCode)
	}
}

// TestRuntimeSamplerLifecycle: SampleRuntimeEvery publishes runtime.*
// gauges into the server's registry and Shutdown stops the sampler.
func TestRuntimeSamplerLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustServer(t, Config{Metrics: reg, SampleRuntimeEvery: time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := reg.Snapshot()["runtime.goroutines"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runtime sampler never published")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// findSpan returns the first span named name whose parent is parent
// (any parent when parent < 0), or nil.
func findSpan(spans []obs.SpanRecord, parent int32, name string) *obs.SpanRecord {
	for i := range spans {
		if spans[i].Name == name && (parent < 0 || spans[i].Parent == parent) {
			return &spans[i]
		}
	}
	return nil
}

// spanAttrs returns span id's attributes by key.
func spanAttrs(attrs []obs.SpanAttr, id int32) map[string]int64 {
	m := make(map[string]int64)
	for _, a := range attrs {
		if a.Span == id {
			m[a.Key] = a.Value
		}
	}
	return m
}
