// Package server exposes BFAST-Monitor as a production HTTP service —
// the deployment shape a monitoring system actually runs as (the paper's
// "trigger countermeasures" use case implies something is watching):
//
//	POST /v1/detect  {"series": [...], "history": 113, ...}  -> Result JSON
//	POST /v1/trace   same body                               -> process trajectory
//	POST /v1/batch   {"pixels": [[...],[...]], "history": …} -> one Result per pixel
//	GET  /v1/healthz                                         -> ok (503 while draining)
//	GET  /metrics                                            -> metric JSON (Prometheus text via Accept or ?format=prometheus)
//	GET  /debug/bfast                                        -> config, recent request traces
//	GET  /debug/bfast/traces                                 -> recent request traces, ring + persisted (?limit=, ?since=, ?request_id=)
//	GET  /debug/bfast/flight                                 -> flight-recorder bundle (tar.gz)
//
// NaN cannot be represented in JSON; missing observations are sent as
// null (the natural encoding for "no measurement").
//
// The serving spine (DESIGN.md §6): every request's context is plumbed
// into the detection kernels, so client disconnects and deadlines abandon
// the remaining steal units; heavy endpoints run under a concurrency
// limit with immediate 429 backpressure; request/batch sizes are bounded;
// errors carry stable machine-readable codes; Shutdown drains in-flight
// requests before returning.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bfast/internal/nrt"
	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/state"
)

// HeaderRequestID is the request/response header carrying the request's
// correlation ID. A client-supplied value (≤ 128 chars) is honored;
// otherwise the server generates one. The same ID appears on the
// response, in every log line of the request, and on its trace in
// /debug/bfast/traces — the join key across logs, traces and metrics.
const HeaderRequestID = "X-Request-ID"

const maxRequestIDLen = 128

// Config parameterizes the service. The zero value serves with
// production defaults; see the field comments for what 0 means.
type Config struct {
	// MaxBodyBytes caps a request body (default 256 MiB).
	MaxBodyBytes int64
	// MaxBatchPixels caps the pixel count of one /v1/batch request
	// (default 65536). Larger scenes should be split client-side — the
	// same chunking the offline pipeline applies (§III-D).
	MaxBatchPixels int
	// MaxSeriesLen caps the per-pixel series length (default 16384).
	MaxSeriesLen int
	// MaxConcurrent caps concurrently *computing* requests on the heavy
	// endpoints (detect/trace/batch); excess requests get an immediate
	// 429 (default 2×GOMAXPROCS).
	MaxConcurrent int
	// Workers is the per-request detection worker count (default 0 =
	// GOMAXPROCS; the shared scheduler bounds total helpers regardless).
	Workers int
	// TraceDepth is how many recent request traces /debug/bfast keeps
	// (default 64; negative disables tracing).
	TraceDepth int
	// Metrics is the registry the server publishes into (default the
	// process-wide obs.Default(), which also carries the scheduler and
	// kernel-phase counters).
	Metrics *obs.Registry
	// DisableDebug removes /metrics, /debug/bfast and /debug/pprof from
	// the mux.
	DisableDebug bool
	// RetryAfterSeconds is the Retry-After hint on 429 responses
	// (default 1).
	RetryAfterSeconds int
	// Logger receives structured request logging (nil = no logging).
	// Every line carries request_id and endpoint; level follows the
	// outcome (5xx → error, 4xx → warn, else info).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (ignored
	// when DisableDebug is set).
	EnablePprof bool
	// SampleRuntimeEvery, when positive, starts a background sampler
	// publishing runtime.* gauges (goroutines, heap, GC pauses) into
	// Metrics at that interval; Shutdown stops it.
	SampleRuntimeEvery time.Duration
	// NRT groups the stateful near-real-time serving knobs
	// (/v1/fit, /v1/observe, /v1/sessions).
	NRT NRTConfig
	// Diag groups the production-diagnostics knobs (see diag.go):
	// tail-sampled trace persistence, anomaly-triggered profile capture
	// and the flight-recorder bundle.
	Diag DiagConfig
	// SLO groups the per-endpoint latency objectives behind the slo.*
	// burn-rate gauges. On by default with DefaultSLOLatencyMs /
	// DefaultSLOTarget over the compute endpoints.
	SLO SLOConfig
}

// NRTConfig groups the stateful near-real-time serving knobs. The NRT
// endpoints are always mounted; this only controls durability and
// capacity.
type NRTConfig struct {
	// StateDir persists each session under this directory as a base
	// snapshot file plus a journal of the dates observed since; on boot,
	// existing sessions are restored (base, then journal replay), so
	// sessions survive restarts bit-identically. "" keeps sessions in
	// process memory only (they die with the process).
	StateDir string
	// SnapshotEvery persists a session after every k-th observe call
	// (default 1 = every observe; negative disables automatic snapshots
	// — Shutdown still persists).
	SnapshotEvery int
	// MaxSessions caps concurrently live sessions (default 64); /v1/fit
	// past the cap is rejected with 429 rate_limited.
	MaxSessions int
	// MaxCapacity caps a session's designed series length — history plus
	// all future monitoring dates (default MaxSeriesLen).
	MaxCapacity int
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxBatchPixels <= 0 {
		c.MaxBatchPixels = 65536
	}
	if c.MaxSeriesLen <= 0 {
		c.MaxSeriesLen = 16384
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.NRT.MaxSessions <= 0 {
		c.NRT.MaxSessions = 64
	}
	if c.NRT.MaxCapacity <= 0 {
		c.NRT.MaxCapacity = c.MaxSeriesLen
	}
	return c
}

// Server is the BFAST-Monitor HTTP service. It implements http.Handler
// (usable under any mux or httptest) and owns an optional listener
// lifecycle via Serve/ListenAndServe/Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	sem      chan struct{}
	ring     *obs.TraceRing
	draining atomic.Bool

	// registered tracks every mux pattern mounted through handle();
	// VerifyRoutes pins it against RouteTable.
	registered []string
	// nrtMgr owns the stateful NRT sessions behind /v1/fit and
	// /v1/observe.
	nrtMgr *nrt.Manager

	mu      sync.Mutex
	httpSrv *http.Server

	inflight    *obs.Gauge
	rateLimited *obs.Counter
	reqBytes    *obs.Histogram

	// The diagnostics layer (diag.go). tail and prof are nil without a
	// Diag.Dir, slo is nil when SLO.Disabled — all are nil-safe.
	tail     *obs.TailSampler
	slo      *obs.SLOMonitor
	prof     *obs.ProfCapture
	stopSLO  func()
	stopProf func()
	// decodePool recycles each request's decodeBuf (reqjson.go): its
	// body bytes and the values its rows decode into, which the
	// handlers pass to the kernels as the packed matrix.
	decodePool sync.Pool

	stopSampler func()
}

// New returns the service. The zero Config is production-ready. It
// errors when the NRT state directory cannot be opened or when the mux
// and RouteTable drift (a programming error this constructor turns into
// a boot failure).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		sem:         make(chan struct{}, cfg.MaxConcurrent),
		inflight:    cfg.Metrics.Gauge("server.inflight"),
		rateLimited: cfg.Metrics.Counter("server.rate_limited"),
		reqBytes:    cfg.Metrics.Histogram("server.request.bytes", nil),
	}
	if cfg.TraceDepth >= 0 {
		s.ring = obs.NewTraceRing(cfg.TraceDepth)
	}

	// NRT durability: a state directory makes sessions restart-proof;
	// without one they live (and die) with the process.
	var store state.Store
	if cfg.NRT.StateDir != "" {
		fs, err := state.NewFileStore(cfg.NRT.StateDir, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	s.nrtMgr = nrt.NewManager(nrt.Config{
		Store:         store,
		Metrics:       cfg.Metrics,
		SnapshotEvery: cfg.NRT.SnapshotEvery,
	})
	if store != nil {
		// Boot-time restore: New has no caller context by design (the
		// process is not serving yet, so there is nothing to cancel).
		//lint:allow ctxfirst -- constructor-time restore precedes any request context
		if _, err := s.nrtMgr.Restore(context.Background()); err != nil {
			return nil, fmt.Errorf("server: restoring NRT sessions: %w", err)
		}
	}

	// Production diagnostics: tail-sampled trace persistence, SLO
	// burn-rate gauges, anomaly-triggered profile capture (diag.go).
	if err := s.initDiagnostics(); err != nil {
		return nil, fmt.Errorf("server: diagnostics: %w", err)
	}

	// Table-driven registration: every path the RouteTable declares for
	// this configuration gets its handler mounted through handle(), and
	// VerifyRoutes then pins mux against table.
	handlers := map[string]http.Handler{
		"/v1/healthz":          http.HandlerFunc(s.handleHealthz),
		"/v1/detect":           s.endpoint("detect", "POST", true, s.handleDetect),
		"/v1/trace":            s.endpoint("trace", "POST", true, s.handleTrace),
		"/v1/batch":            s.endpoint("batch", "POST", true, s.handleBatch),
		"/v1/fit":              s.endpoint("fit", "POST", true, s.handleFit),
		"/v1/observe":          s.endpoint("observe", "POST", true, s.handleObserve),
		"/v1/sessions":         s.endpoint("sessions", "GET,DELETE", false, s.handleSessions),
		"/metrics":             cfg.Metrics.Handler(),
		"/debug/bfast":         http.HandlerFunc(s.handleDebug),
		"/debug/bfast/traces":  http.HandlerFunc(s.handleTraces),
		"/debug/bfast/flight":  http.HandlerFunc(s.handleFlight),
		"/debug/pprof/":        http.HandlerFunc(pprof.Index),
		"/debug/pprof/cmdline": http.HandlerFunc(pprof.Cmdline),
		"/debug/pprof/profile": http.HandlerFunc(pprof.Profile),
		"/debug/pprof/symbol":  http.HandlerFunc(pprof.Symbol),
		"/debug/pprof/trace":   http.HandlerFunc(pprof.Trace),
	}
	for _, path := range declaredPaths(cfg) {
		h, ok := handlers[path]
		if !ok {
			return nil, fmt.Errorf("server: route %q declared in RouteTable but has no handler", path)
		}
		s.handle(path, h)
	}
	if err := s.VerifyRoutes(); err != nil {
		return nil, err
	}

	if cfg.SampleRuntimeEvery > 0 {
		s.stopSampler = obs.StartRuntimeSampler(cfg.Metrics, cfg.SampleRuntimeEvery)
	}
	return s, nil
}

// handle mounts a pattern and records it for VerifyRoutes. All mux
// registration funnels through here — that is what makes the recorded
// set authoritative.
func (s *Server) handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
	s.registered = append(s.registered, pattern)
}

// requestID returns the client-supplied correlation ID when acceptable,
// otherwise a fresh random one.
func requestID(r *http.Request) string {
	if id := r.Header.Get(HeaderRequestID); id != "" && len(id) <= maxRequestIDLen {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// Config returns the server's resolved configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Traces returns the recent request traces (nil when tracing is off).
func (s *Server) Traces() []obs.Trace { return s.ring.Recent() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, errf(http.StatusServiceUnavailable, CodeUnavailable, "draining for shutdown"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleDebug dumps the serving state: resolved limits, in-flight count
// and the recent per-request phase traces — the request-level analogue
// of the per-pixel ProcessTrace diagnostic.
func (s *Server) handleDebug(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"limits": map[string]any{
			"max_body_bytes":   s.cfg.MaxBodyBytes,
			"max_batch_pixels": s.cfg.MaxBatchPixels,
			"max_series_len":   s.cfg.MaxSeriesLen,
			"max_concurrent":   s.cfg.MaxConcurrent,
		},
		"workers": s.cfg.Workers,
		"nrt": map[string]any{
			"state_dir":      s.cfg.NRT.StateDir,
			"snapshot_every": s.cfg.NRT.SnapshotEvery,
			"max_sessions":   s.cfg.NRT.MaxSessions,
			"max_capacity":   s.cfg.NRT.MaxCapacity,
			"sessions":       s.nrtMgr.List(),
		},
		"diag": map[string]any{
			"dir":            s.cfg.Diag.Dir,
			"tail_sampling":  s.tail != nil,
			"profile_watch":  s.prof != nil,
			"slo_objectives": s.slo.Objectives(),
		},
		"inflight": s.inflight.Value(),
		"draining": s.draining.Load(),
		"traces":   s.ring.Recent(),
	})
}

// endpointFunc computes one request under ctx, the request's context
// carrying its root span. It returns the response value to encode
// (ignored when it returns an error); phase timings are emitted as
// spans on ctx.
type endpointFunc func(ctx context.Context, r *http.Request, tr *obs.Trace) (any, *apiError)

// endpoint wraps a handler with the serving spine: request-ID
// correlation, method check (methods is a comma-separated allow list),
// concurrency limiting with 429 backpressure on heavy endpoints,
// per-endpoint request/outcome/latency metrics, span tracing and the
// trace ring, and structured request logging.
func (s *Server) endpoint(name, methods string, heavy bool, fn endpointFunc) http.Handler {
	m := s.cfg.Metrics
	requests := m.Counter("server." + name + ".requests")
	oks := m.Counter("server." + name + ".ok")
	clientErrs := m.Counter("server." + name + ".client_error")
	canceled := m.Counter("server." + name + ".canceled")
	latency := m.Histogram("server."+name+".latency_ms", nil)
	allowed := strings.Split(methods, ",")
	// Span tracing rides the trace ring's switch: with tracing off the
	// request has no root span and every StartSpan below it is a no-op.
	root := ""
	if s.ring != nil {
		root = "server." + name
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		id := requestID(r)
		w.Header().Set(HeaderRequestID, id)
		// The request's trace state is pooled; it goes back only after
		// finish has recorded, offered and logged it (deferred first, so
		// it runs last).
		rt := obs.StartRequest(root)
		defer rt.Release()
		tr := &rt.Trace
		tr.RequestID, tr.Start, tr.Endpoint, tr.Bytes = id, start, name, r.ContentLength
		ctx := obs.ContextWithSpan(r.Context(), rt.Root())
		if r.ContentLength > 0 {
			s.reqBytes.Observe(float64(r.ContentLength))
		}
		finish := func(code int, apiErr *apiError) {
			tr.Code = code
			tr.Total = time.Since(start)
			if apiErr != nil {
				tr.Err = apiErr.Code
			}
			// The exemplar puts this request's ID on the latency bucket it
			// landed in, so a burning SLO points at a concrete trace.
			latency.ObserveExemplar(float64(tr.Total)/1e6, id)
			rt.Seal()
			s.ring.Record(*tr)
			// Tail sampling sees the completed trace — outcome and latency
			// known — and persists it when it is an error, slow, or a
			// head-sample baseline.
			s.tail.Offer(*tr)
			logRequest(ctx, s.cfg.Logger, name, tr)
		}
		if !slices.Contains(allowed, r.Method) {
			e := errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s required", methods)
			clientErrs.Inc()
			writeError(w, e)
			finish(e.Status, e)
			return
		}
		if heavy {
			// Backpressure: reject instead of queueing — a queued request
			// holds its whole decoded body in memory while it waits, and the
			// client's deadline keeps running; telling it "try again" now is
			// strictly cheaper for both sides.
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.rateLimited.Inc()
				e := errf(http.StatusTooManyRequests, CodeRateLimited, "concurrency limit %d reached", s.cfg.MaxConcurrent)
				w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
				writeError(w, e)
				finish(e.Status, e)
				return
			}
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		resp, apiErr := fn(ctx, r, tr)
		if apiErr == nil {
			if err := writeJSON(ctx, w, resp); err != nil {
				apiErr = ctxError(ctx, err)
			}
			if rel, ok := resp.(releaser); ok {
				rel.release()
			}
		}
		switch {
		case apiErr == nil:
			oks.Inc()
			finish(http.StatusOK, nil)
		case apiErr.Code == CodeCanceled:
			// The client is gone (or its deadline passed): the write is
			// best-effort, the record is what matters.
			canceled.Inc()
			writeError(w, apiErr)
			finish(apiErr.Status, apiErr)
		default:
			clientErrs.Inc()
			writeError(w, apiErr)
			finish(apiErr.Status, apiErr)
		}
	})
}

// logRequest writes a request's log line, at Error for a 5xx, Warn for
// a 4xx and Info otherwise: one record with typed attributes, the
// request ID and endpoint first, built only when the level is enabled.
func logRequest(ctx context.Context, lg *slog.Logger, endpoint string, tr *obs.Trace) {
	level := slog.LevelInfo
	switch {
	case tr.Code >= 500:
		level = slog.LevelError
	case tr.Code >= 400:
		level = slog.LevelWarn
	}
	if !lg.Enabled(ctx, level) {
		return
	}
	attrs := append(make([]slog.Attr, 0, 8),
		slog.String("request_id", tr.RequestID), slog.String("endpoint", endpoint),
		slog.Int("code", tr.Code), slog.String("err", tr.Err), slog.Int("pixels", tr.Pixels),
		slog.Int64("bytes", tr.Bytes), slog.Duration("duration", tr.Total))
	if tr.Session != "" {
		attrs = append(attrs, slog.String("session", tr.Session))
	}
	lg.LogAttrs(ctx, level, "request served", attrs...)
}

// ctxError classifies a kernel error: context cancellation becomes the
// canceled code, anything else is a client-input problem (the kernels
// only fail on invalid parameters).
func ctxError(ctx context.Context, err error) *apiError {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ctx.Err()) && ctx.Err() != nil {
		return errf(StatusClientClosedRequest, CodeCanceled, "request canceled: %v", err)
	}
	return errf(http.StatusBadRequest, CodeInvalidArgument, "%v", err)
}

// --- lifecycle ------------------------------------------------------------

// httpServer lazily builds the owned http.Server (timeouts chosen for
// large-batch workloads: slow header readers are cut quickly, bodies may
// stream for minutes).
func (s *Server) httpServer() *http.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{
			Handler:           s,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       5 * time.Minute,
			WriteTimeout:      5 * time.Minute,
		}
	}
	return s.httpSrv
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.httpServer().Serve(l) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the server: /v1/healthz starts reporting 503
// (so load balancers stop routing), listeners close, and in-flight
// requests are drained until they finish or ctx expires. Safe to call
// without a prior Serve (no-op beyond entering the draining state).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.stopSampler != nil {
		s.stopSampler()
	}
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	// Persist every NRT session after the drain, so the snapshots carry
	// the last observe each request saw — the restart-durability
	// contract (a rebooted server resumes bit-identically).
	if nerr := s.nrtMgr.Close(ctx); err == nil {
		err = nerr
	}
	// Diagnostics go down last: the drain above finished every in-flight
	// request, so the trace log has its final offers before it closes.
	s.stopDiagnostics()
	return err
}

// jsonAppender is a response body that renders its own JSON, trailing
// newline included, without reflection, as rows between a head and a
// tail: head, rows [0, rows()) and tail, concatenated, are the reply.
// appendRows writes the separator before every row but the first, so
// any split of [0, rows()) into consecutive ranges renders the same
// bytes.
type jsonAppender interface {
	rows() int
	appendHead(b []byte) []byte
	appendRows(b []byte, lo, hi int) []byte
	appendTail(b []byte) []byte
}

// releaser is a reply that holds pooled memory; the endpoint releases
// it once writeJSON has returned, every range rendered and written.
type releaser interface{ release() }

// replyRange is the number of rows one range of a reply renders. On a
// 2-core x86-64 host a range of observe verdicts is about 0.27 ms of
// formatting, ten to twenty times the 15-27 µs a shared-pool loop
// costs to dispatch, so a range pays for its dispatch at any reply
// size. It is a property of the formatter, not of a deployment, and so
// not a knob.
const replyRange = 1024

// replyRanges renders one jsonAppender reply in ranges of replyRange
// rows: bufs[k] holds range k, range 0 carrying the head and the last
// range the tail. Both it and its range buffers are pooled. The buffers
// have a pool of their own, so they are drawn one by one: a range never
// draws a whole reply's worth of buffers, a pooled buffer is range-sized
// and a warm one never regrows, and the shared pool's helpers can take
// the buffers the caller's processor put back.
type replyRanges struct {
	a      jsonAppender
	rows   int
	bufs   []*[]byte
	tailAt int // where the tail starts in the last range's buffer
}

var (
	replyPool = sync.Pool{New: func() any { return new(replyRanges) }}
	rangePool = sync.Pool{New: func() any { return new([]byte) }}
)

func (r *replyRanges) render(k int) {
	p := rangePool.Get().(*[]byte)
	b := (*p)[:0]
	if k == 0 {
		b = r.a.appendHead(b)
	}
	b = r.a.appendRows(b, k*replyRange, min((k+1)*replyRange, r.rows))
	if k == len(r.bufs)-1 {
		r.tailAt = len(b)
		b = r.a.appendTail(b)
	}
	*p = b
	r.bufs[k] = p
}

// release returns the range buffers and r to their pools. A cancelled
// loop leaves the ranges it never claimed nil.
func (r *replyRanges) release() {
	for k, p := range r.bufs {
		if p != nil {
			rangePool.Put(p)
			r.bufs[k] = nil
		}
	}
	r.a = nil // the pool must not pin the reply
	replyPool.Put(r)
}

// writeJSON writes v as the response body inside an encode span. A
// jsonAppender renders in ranges (replyRanges): one range in the
// caller, more in parallel on the shared pool under ctx. The ranges are
// then written in order under an explicit Content-Length, so the bytes
// are the same whatever the split. If ctx is cancelled before every
// range was claimed, nothing is written and the context's error is
// returned. Anything else goes through encoding/json.
func writeJSON(ctx context.Context, w http.ResponseWriter, v any) error {
	ctx, sp := obs.StartSpan(ctx, "encode")
	defer sp.End()
	w.Header().Set("Content-Type", "application/json")
	a, ok := v.(jsonAppender)
	if !ok {
		// On error the headers are gone; nothing more to do.
		_ = json.NewEncoder(w).Encode(v)
		return nil
	}
	r := replyPool.Get().(*replyRanges)
	defer r.release()
	r.a, r.rows = a, a.rows()
	ranges := max(1, (r.rows+replyRange-1)/replyRange)
	if cap(r.bufs) < ranges {
		r.bufs = make([]*[]byte, ranges)
	}
	r.bufs = r.bufs[:ranges]
	if ranges == 1 {
		r.render(0)
	} else {
		err := sched.Shared().ForEachCtx(ctx, ranges, 0, 1, func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				r.render(k)
			}
		})
		if err != nil {
			return err
		}
	}
	n := 0
	for _, p := range r.bufs {
		n += len(*p)
	}
	sp.SetAttr("bytes", int64(n))
	sp.SetAttr("ranges", int64(ranges))
	w.Header().Set("Content-Length", strconv.Itoa(n))
	for _, p := range r.bufs[:ranges-1] {
		_, _ = w.Write(*p) // as above: a failed write has nowhere to go
	}
	// The tail goes out in a write of its own: net/http buffers so short
	// a write until the handler returns, so a client has the whole reply
	// only after the request's trace and metrics are recorded.
	last := *r.bufs[ranges-1]
	_, _ = w.Write(last[:r.tailAt])
	_, _ = w.Write(last[r.tailAt:])
	return nil
}
