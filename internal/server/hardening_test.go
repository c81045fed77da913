package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/sched"
	"bfast/internal/tile"
)

// errEnvelope decodes the {"error":{"code","message"}} wire shape.
func errEnvelope(t *testing.T, body []byte) errorDetail {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not structured: %v: %s", err, body)
	}
	if e.Error.Code == "" {
		t.Fatalf("error body missing code: %s", body)
	}
	return e.Error
}

// TestDeclaredLengthMismatch is the regression test for the n-vs-data
// framing check: an over-long series against a declared n must fail with
// a structured 400 length_mismatch, not silently compute on bad framing.
func TestDeclaredLengthMismatch(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()

	// Over-long series: 25 values declared as n=20.
	resp, body := post(t, ts, "/v1/detect", map[string]any{
		"series": make([]float64, 25), "n": 20, "history": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeLengthMismatch {
		t.Fatalf("code %q, want %q", e.Code, CodeLengthMismatch)
	}

	// Matching n passes the framing check (fails later only if params bad).
	resp, body = post(t, ts, "/v1/detect", map[string]any{
		"series": make([]float64, 25), "n": 25, "history": 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching n: status %d: %s", resp.StatusCode, body)
	}

	// Batch: declared n binds every pixel row.
	resp, body = post(t, ts, "/v1/batch", map[string]any{
		"pixels": [][]float64{make([]float64, 20), make([]float64, 25)}, "n": 20, "history": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeLengthMismatch {
		t.Fatalf("batch code %q, want %q", e.Code, CodeLengthMismatch)
	}

	// A negative declared n is rejected before it sizes the pack buffer.
	resp, body = post(t, ts, "/v1/batch", json.RawMessage(`{"pixels":[[1,2,3]],"history":2,"n":-1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative n: status %d, want 400: %s", resp.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeInvalidArgument {
		t.Fatalf("negative n: code %q, want %q", e.Code, CodeInvalidArgument)
	}
}

// TestFitBoundsHistoryBeforePacking: /v1/fit sizes its pack buffer by
// pixels × history, so a history past MaxSeriesLen, or one the capacity
// leaves no monitoring period after, is rejected with 400 before that —
// the latter with the session manager's own message.
func TestFitBoundsHistoryBeforePacking(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	for _, tc := range []struct{ body, msg string }{
		{`{"pixels":[[1]],"history":4611686018427387904,"capacity":100}`, "history has 4611686018427387904 dates, limit is 16384"},
		{`{"pixels":[[1]],"history":16000,"capacity":100}`, nrt.CheckCapacity(100, 16000).Error()},
	} {
		resp, body := post(t, ts, "/v1/fit", json.RawMessage(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.body, resp.StatusCode, body)
		}
		if e := errEnvelope(t, body); e.Code != CodeInvalidArgument || e.Message != tc.msg {
			t.Fatalf("%s: %s %q, want %s %q", tc.body, e.Code, e.Message, CodeInvalidArgument, tc.msg)
		}
	}
}

func TestBodyAndBatchLimits(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{MaxBodyBytes: 128, MaxBatchPixels: 2}))
	defer ts.Close()

	big := `{"series": [` + strings.Repeat("0.5,", 200) + `0.5], "history": 10}`
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, buf.Bytes())
	}
	if e := errEnvelope(t, buf.Bytes()); e.Code != CodeBodyTooLarge {
		t.Fatalf("code %q, want %q", e.Code, CodeBodyTooLarge)
	}

	resp2, body := post(t, ts, "/v1/batch", map[string]any{
		"pixels":  [][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)},
		"history": 2,
	})
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch status %d, want 413: %s", resp2.StatusCode, body)
	}
	if e := errEnvelope(t, body); e.Code != CodeBatchTooLarge {
		t.Fatalf("code %q, want %q", e.Code, CodeBatchTooLarge)
	}
}

// TestConcurrencyLimit429 fills the semaphore and verifies the next
// request is rejected immediately with 429 + Retry-After, then succeeds
// once a slot frees up.
func TestConcurrencyLimit429(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.sem <- struct{}{} // occupy the only compute slot
	resp, body := post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if e := errEnvelope(t, body); e.Code != CodeRateLimited {
		t.Fatalf("code %q, want %q", e.Code, CodeRateLimited)
	}
	if got := s.rateLimited.Value(); got < 1 {
		t.Fatalf("server.rate_limited = %d, want >= 1", got)
	}

	<-s.sem // free the slot; the same request now computes
	resp, body = post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after free: status %d: %s", resp.StatusCode, body)
	}
}

// TestBatchCancellationMidRequest verifies a canceled request abandons
// the batch kernel promptly (no steal units run for a pre-canceled
// context), records the canceled outcome, and releases its concurrency
// slot so the next request proceeds.
func TestBatchCancellationMidRequest(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1})

	rng := rand.New(rand.NewSource(11))
	pixels := make([]Series, 64)
	for i := range pixels {
		pixels[i] = jsonSeries(rng, 200, -1, 0.2)
	}
	raw, err := json.Marshal(DetectRequest{Pixels: pixels, History: 100})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the kernel starts
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()

	ranBefore := sched.StatBlocksRun.Value()
	canceledBefore := s.cfg.Metrics.Counter("server.batch.canceled").Value()
	s.ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body.String())
	}
	if e := errEnvelope(t, rec.Body.Bytes()); e.Code != CodeCanceled {
		t.Fatalf("code %q, want %q", e.Code, CodeCanceled)
	}
	if ran := sched.StatBlocksRun.Value() - ranBefore; ran != 0 {
		t.Fatalf("canceled request still ran %d steal units", ran)
	}
	if got := s.cfg.Metrics.Counter("server.batch.canceled").Value() - canceledBefore; got != 1 {
		t.Fatalf("server.batch.canceled delta = %d, want 1", got)
	}

	// The slot must be free again: a live request on the same server works.
	req2 := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw))
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", rec2.Code, rec2.Body.String())
	}
}

// TestGracefulShutdownDrains starts a real listener, gets a request
// in flight, and verifies Shutdown waits for it to finish (200, full
// body) while Serve returns http.ErrServerClosed.
func TestGracefulShutdownDrains(t *testing.T) {
	s := mustServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	rng := rand.New(rand.NewSource(12))
	pixels := make([]Series, 2048)
	for i := range pixels {
		pixels[i] = jsonSeries(rng, 300, -1, 0.2)
	}
	raw, err := json.Marshal(DetectRequest{Pixels: pixels, History: 150})
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		code int
		n    int
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+l.Addr().String()+"/v1/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var out []DetectResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		done <- reply{code: resp.StatusCode, n: len(out), err: err}
	}()

	// Wait until the request is actually computing.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK || r.n != len(pixels) {
		t.Fatalf("drained request: status %d, %d results (want 200, %d)", r.code, r.n, len(pixels))
	}
}

// TestHealthzDraining503 verifies the load-balancer signal flips during
// shutdown.
func TestHealthzDraining503(t *testing.T) {
	s := mustServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy: status %d", rec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil { // no listener: enters draining only
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", rec.Code)
	}
	if e := errEnvelope(t, rec.Body.Bytes()); e.Code != CodeUnavailable {
		t.Fatalf("code %q, want %q", e.Code, CodeUnavailable)
	}
}

// TestMetricsEndpoint drives one request of each class and checks the
// /metrics JSON carries the serving, scheduler and kernel-phase series
// the CI smoke test greps for.
func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()

	rng := rand.New(rand.NewSource(13))
	pixels := []Series{jsonSeries(rng, 200, 150, 0.3), jsonSeries(rng, 200, -1, 0.3)}
	if resp, body := post(t, ts, "/v1/batch", DetectRequest{Pixels: pixels, History: 100}); resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"server.batch.requests", "server.batch.ok", "server.batch.latency_ms",
		"server.inflight", "server.rate_limited",
		"sched.blocks.run", "sched.loops", "kernel.pixels",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	if h, ok := m["server.batch.latency_ms"].(map[string]any); !ok {
		t.Fatalf("latency histogram shape: %T", m["server.batch.latency_ms"])
	} else if c, _ := h["count"].(float64); c < 1 {
		t.Fatalf("latency count = %v, want >= 1", h["count"])
	}
	if v, ok := m["server.batch.requests"].(float64); !ok || v < 1 {
		t.Fatalf("server.batch.requests = %v, want >= 1", m["server.batch.requests"])
	}
	if v, ok := m["kernel.pixels"].(float64); !ok || v < 2 {
		t.Fatalf("kernel.pixels = %v, want >= 2", m["kernel.pixels"])
	}
}

// TestDebugEndpoint checks /debug/bfast exposes limits and the trace ring.
func TestDebugEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{TraceDepth: 8}))
	defer ts.Close()
	post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})

	resp, err := http.Get(ts.URL + "/debug/bfast")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbg struct {
		Limits map[string]any `json:"limits"`
		Traces []struct {
			Endpoint string `json:"endpoint"`
			Code     int    `json:"code"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Limits["max_concurrent"] == nil {
		t.Fatal("debug missing limits")
	}
	if len(dbg.Traces) == 0 || dbg.Traces[len(dbg.Traces)-1].Endpoint != "detect" {
		t.Fatalf("debug traces missing the detect request: %+v", dbg.Traces)
	}
}

func TestDisableDebug(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{DisableDebug: true}))
	defer ts.Close()
	for _, p := range []string{"/metrics", "/debug/bfast"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestRetryAfterConfigurable: the 429 Retry-After hint must follow
// Config.RetryAfterSeconds (default 1).
func TestRetryAfterConfigurable(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1, RetryAfterSeconds: 7})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, body := post(t, ts, "/v1/detect", map[string]any{"series": make([]float64, 30), "history": 10})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	if got := mustServer(t, Config{}).Config().RetryAfterSeconds; got != 1 {
		t.Fatalf("default RetryAfterSeconds = %d, want 1", got)
	}
}

// TestHostileBodiesAllocateBounded: a body of 4 096 empty rows declaring
// a long row length (n, history, or an 8 192-pixel session's width) must
// get its 400 length_mismatch without allocating the pack buffer that
// length would need — about 12 KB of request must not cost hundreds of
// MB. Each call may allocate at most 4 MB in total. The cases run in
// order of the buffer they would size, so none could hide behind a
// larger one left in the pool by the case before.
//
// Likewise a one-pixel body asking for harmonics = 40 (K = 82) over a
// 4 000-date history, whose pair table alone would take 109 MB, gets
// 400 invalid_argument from every endpoint that builds a design once the
// design would exceed the body limit (8 MiB here), before any of it is
// built.
//
// readBody sizes its buffer from Content-Length, so a false one is
// pinned too: a request declaring MaxBodyBytes−1 bytes that carries 100
// allocates under 1 MiB, and a body that arrives in small pieces, with
// its length declared or not, never has a buffer larger than twice the
// bytes received plus 64 KiB read into.
func TestHostileBodiesAllocateBounded(t *testing.T) {
	s := mustServer(t, Config{})
	const rows, sessionPixels = 4096, 8192
	hist := make([]float64, sessionPixels*50)
	sum, err := s.nrtMgr.Fit(context.Background(), nrt.FitRequest{
		Options: core.DefaultOptions(50), Pixels: sessionPixels, History: hist, Capacity: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	empty := strings.Repeat("[],", rows-1) + "[]"
	small := mustServer(t, Config{MaxBodyBytes: 8 << 20})
	const history, n = 4000, 8000
	series := func(n int) string { return "[" + strings.Repeat("1,", n-1) + "1]" }
	for _, tc := range []struct {
		s          *Server
		path, body string
		code       string
	}{
		{s, "/v1/observe", `{"session":"` + sum.ID + `","dates":[` + empty + `]}`, CodeLengthMismatch},
		{s, "/v1/fit", `{"pixels":[` + empty + `],"history":16000,"capacity":16001}`, CodeLengthMismatch},
		{s, "/v1/batch", `{"pixels":[` + empty + `],"history":16000,"n":16384}`, CodeLengthMismatch},
		{small, "/v1/batch", `{"pixels":[` + series(n) + `],"history":4000,"harmonics":40}`, CodeInvalidArgument},
		{small, "/v1/detect", `{"series":` + series(n) + `,"history":4000,"harmonics":40}`, CodeInvalidArgument},
		{small, "/v1/trace", `{"series":` + series(n) + `,"history":4000,"harmonics":40}`, CodeInvalidArgument},
		{small, "/v1/fit", `{"pixels":[` + series(history) + `],"history":4000,"capacity":8000,"harmonics":40}`, CodeInvalidArgument},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		tc.s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.path, rec.Code, rec.Body.Bytes())
		}
		if e := errEnvelope(t, rec.Body.Bytes()); e.Code != tc.code {
			t.Fatalf("%s: code %q, want %q: %s", tc.path, e.Code, tc.code, e.Message)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
			t.Fatalf("%s: a %d-byte body allocated %d bytes", tc.path, len(tc.body), grew)
		}
	}

	// A false Content-Length on a 100-byte body: a fresh server, so no
	// pooled buffer hides what the claim would size.
	short := `{"pixels":[[1,2,3,4,5,6,7,8,9,10,11,12]],"history":8}` + strings.Repeat(" ", 47)
	claims := mustServer(t, Config{TraceDepth: -1})
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(short))
	req.ContentLength = claims.cfg.MaxBodyBytes - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	claims.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("false Content-Length: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a %d-byte body claiming %d bytes allocated %d bytes", len(short), req.ContentLength, grew)
	}

	// A body in 1 000-byte pieces, its length declared or not.
	piecewise := `{"pixels":[` + strings.Repeat(series(100)+",", 2000) + series(100) + `],"history":50}`
	for _, declared := range []int64{int64(len(piecewise)), -1} {
		src := &pieceReader{r: strings.NewReader(piecewise), piece: 1000}
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", src)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		mustServer(t, Config{TraceDepth: -1}).ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("pieces (Content-Length %d): status %d: %s", declared, rec.Code, rec.Body.Bytes())
		}
		if src.worst > 0 {
			t.Fatalf("pieces (Content-Length %d): a read into a buffer %d bytes past twice the %d received plus 64 KiB",
				declared, src.worst, src.worstAt)
		}
	}
}

// pieceReader hands out r at most piece bytes a Read, and records the
// worst read it was asked to fill: how far the caller's buffer, the bytes
// received so far plus len(p), exceeded twice those bytes plus 64 KiB.
type pieceReader struct {
	r              *strings.Reader
	piece          int
	received       int
	worst, worstAt int
}

func (p *pieceReader) Read(b []byte) (int, error) {
	if over := len(b) - p.received - 64<<10; over > p.worst { // received+len(b) past 2·received+64 KiB
		p.worst, p.worstAt = over, p.received
	}
	n, err := p.r.Read(b[:min(len(b), p.piece)])
	p.received += n
	return n, err
}

// TestDesignBoundAdmitsServingShapes: the design bound rejects only what
// exceeds the body limit — the default serving shape and a large but
// affordable harmonic model pass at the 8 MiB limit, and designFits
// agrees with the plain byte count on both sides of its boundary, with
// no overflow for harmonics near the int range.
func TestDesignBoundAdmitsServingShapes(t *testing.T) {
	const limit = 1 << 20 // float64s: an 8 MiB body
	size := func(opt core.Options, n int) int {
		return opt.K()*n + tile.TablesLen(opt.K(), opt.History, n)
	}
	for _, tc := range []struct{ harmonics, history, n int }{
		{3, 114, 228}, {40, 114, 228}, {40, 4000, 8000}, {12, 2000, 4000}, {0, 1, 2},
		{100, 50, 100}, {1 << 20, 1, 2}, {math.MaxInt64 / 4, 5, 10},
	} {
		opt := core.DefaultOptions(tc.history)
		opt.Harmonics = tc.harmonics
		got := designFits(opt, tc.n, limit)
		if tc.harmonics < 1<<20 {
			if want := size(opt, tc.n) <= limit; got != want {
				t.Errorf("harmonics %d history %d n %d: fits = %v, size %d against %d", tc.harmonics, tc.history, tc.n, got, size(opt, tc.n), limit)
			}
		} else if got {
			t.Errorf("harmonics %d: fits", tc.harmonics)
		}
	}
}

// TestBatchShapesLeaveNoHeap: the kernels' buffer pools keep nothing per
// request shape. 2 000 single-pixel /v1/batch calls, each with its own
// (history, n), must leave the live heap, after two collections have
// emptied every sync.Pool, less than 64 KB above where it started.
func TestBatchShapesLeaveNoHeap(t *testing.T) {
	s := mustServer(t, Config{TraceDepth: -1})
	rng := rand.New(rand.NewSource(36))
	call := func(history, n int) {
		t.Helper()
		px := make([]float64, n)
		for i := range px {
			px[i] = rng.NormFloat64()
		}
		body, err := json.Marshal(map[string]any{"pixels": [][]float64{px}, "history": history})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("history %d, n %d: status %d: %s", history, n, rec.Code, rec.Body.Bytes())
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm every lazily built structure the calls touch on shapes outside
	// the measured set.
	for n := 300; n < 400; n++ {
		call(24, n)
	}
	before := liveHeap()
	for history := 24; history < 44; history += 2 {
		for n := 60; n < 260; n++ {
			call(history, n)
		}
	}
	if grew := int64(liveHeap()) - int64(before); grew >= 64<<10 {
		t.Fatalf("2000 request shapes left %d bytes of live heap", grew)
	}
}
