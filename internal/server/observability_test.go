package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

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
// with a client X-Request-ID must echo the ID, and its span tree —
// server root through the batched kernel phases — must be retrievable
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
	if tr.Spans == nil || tr.Spans.Name != "server.batch" {
		t.Fatalf("span tree root: %+v", tr.Spans)
	}
	for _, name := range []string{
		"decode", "pack", "detect", "encode",
		"core.detect_batch", "kernel.mask", "kernel.tiles", "sched.foreach",
	} {
		if tr.Spans.Find(name) == nil {
			t.Fatalf("span tree missing %q:\n%s", name, tbody)
		}
	}
	// The trace must answer "did this request share inverses?".
	for _, attr := range []string{"tiles", "mask_classes", "shared_pixels", "tiles_shared"} {
		if _, ok := tr.Spans.Find("kernel.tiles").Attrs[attr]; !ok {
			t.Fatalf("kernel.tiles span missing %q:\n%s", attr, tbody)
		}
	}
	// detect must dominate decode+pack for a real batch; sanity-check
	// that durations are populated, not just names.
	if d := tr.Spans.Find("detect"); d.DurNs <= 0 {
		t.Fatalf("detect span duration %d", d.DurNs)
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
