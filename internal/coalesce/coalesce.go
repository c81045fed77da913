// Package coalesce merges concurrent small detection requests into
// shared batches — micro-batched serving. The paper's throughput comes
// from batching many pixels into one kernel launch, and the CPU tile
// kernels inherit that shape: a 1-pixel request still pays a whole
// 8-lane tile, a design-matrix build, a mask sweep and a scheduler
// pass. This package tried to manufacture that dense-batch shape from
// many small requests.
//
// The server no longer uses it: once a 1–4 px /v1/batch call cost
// about 0.07 ms, merging calls only added waiting (on the serve-small
// workload coalescing cut pixels_per_s 17-fold and raised
// latency_p50_ms from 0.07 to 1.3 ms, with identical replies), so
// /v1/batch runs core.DetectBatch directly. The benchmark's layer probe
// (bench/layers.go) is now its only importer; the benchmark change that
// retires that probe (ROADMAP C1) deletes the probe and this package
// together. Its coalesce.* metric families are therefore not part of
// any served exposition.
//
// Model: one queue per (canonical Options, series length, batch
// geometry). Concurrent callers append their pixels to the queue and
// park on a per-caller channel; the queue flushes — one merged
// core.DetectBatch over everything accumulated — when it reaches
// Config.BatchPixels, when Config.MaxWait elapses, when the last
// in-flight caller has enqueued (flush-on-idle: waiting longer could
// only add latency, nobody else is arriving), or when the batcher
// closes. The flush demuxes each caller's result slice back through
// its channel.
//
// Correctness contract: per-pixel results are independent of batch
// composition (the repo's bit-identity invariant across strategies,
// tile padding and batch splits), so a coalesced response is
// bit-identical to the per-request response. Cancellation is
// per-caller: a cancelled waiter abandons only its own slice, the
// merged run keeps going for the others, and is itself cancelled only
// when every caller of the flush is gone. A merged batch error fans
// out to every waiter unchanged.
package coalesce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bfast/internal/core"
	"bfast/internal/obs"
)

// Flush reasons, recorded in coalesce.flush.reason.* counters and on
// flush spans.
const (
	ReasonSize     = "size"     // queue reached Config.BatchPixels
	ReasonDeadline = "deadline" // Config.MaxWait elapsed since first enqueue
	ReasonIdle     = "idle"     // no other caller in flight to wait for
	ReasonClose    = "close"    // batcher Close (graceful drain)
	ReasonDirect   = "direct"   // bypassed the queue (large request or closed batcher)
)

// DetectFunc runs one merged batch; the default wraps core.DetectBatch.
// Tests inject instrumented variants.
type DetectFunc func(ctx context.Context, b *core.Batch, opt core.Options, cfg core.BatchConfig) ([]core.Result, error)

// Config parameterizes a Batcher. The zero value works (64-pixel
// flushes, 2 ms deadline, idle flushing on, process-wide metrics).
type Config struct {
	// BatchPixels is the size-flush threshold: a queue holding this many
	// pixels flushes immediately (default 64 — eight full 8-lane tiles).
	// Requests of BatchPixels or more bypass the queue entirely; they
	// already fill tiles on their own.
	BatchPixels int
	// MaxWait bounds the time a queued caller waits for co-riders before
	// the queue flushes anyway (default 2ms). This is the worst-case
	// latency coalescing can add to a request.
	MaxWait time.Duration
	// DisableIdleFlush turns off the flush-on-idle heuristic, forcing
	// every non-full queue to wait out MaxWait. Only tests and latency
	// experiments want this.
	DisableIdleFlush bool
	// IdleGrace is how long the batcher confirms quiescence before an
	// idle flush (default 100µs). The arrival count touches zero between
	// any two back-to-back requests on a busy few-core host — consecutive
	// handlers run serially, each enqueueing before the next gets the
	// processor — so "idle" must mean "no arrival for IdleGrace", not "no
	// arrival this instant". A genuinely lone request pays at most this
	// much extra latency.
	IdleGrace time.Duration
	// Detect runs a merged batch (default core.DetectBatch).
	Detect DetectFunc
	// Metrics receives the coalesce.* counters, gauges and histograms
	// (default obs.Default()).
	Metrics *obs.Registry
	// Traces, when non-nil, receives one synthetic trace per flush
	// (request id "coalesce-flush-<id>", endpoint "coalesce.flush") whose
	// span tree holds the merged kernel phases. Callers' own spans carry
	// the flush id, so /debug/bfast/traces stitches the per-request view.
	Traces *obs.TraceRing
}

func (c Config) withDefaults() Config {
	if c.BatchPixels <= 0 {
		c.BatchPixels = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.IdleGrace <= 0 {
		c.IdleGrace = 100 * time.Microsecond
	}
	if c.Detect == nil {
		c.Detect = core.DetectBatch
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	return c
}

// FlushMeta describes the shared flush a caller's pixels rode in —
// returned alongside the results so the serving layer can attach it to
// the caller's span.
type FlushMeta struct {
	// ID is the flush sequence number; the matching synthetic trace (if
	// tracing is on) has request id "coalesce-flush-<ID>".
	ID int64
	// Pixels and Callers are the merged batch's totals.
	Pixels  int
	Callers int
	// Reason is why the queue flushed (Reason* constants).
	Reason string
	// Wait is first-enqueue → flush start; Detect is the merged kernel
	// time.
	Wait, Detect time.Duration
}

// callResult is what a flush delivers to each parked caller.
type callResult struct {
	res  []core.Result
	err  error
	meta FlushMeta
}

// call is one caller's stake in a queue: its slice of the merged batch
// and the channel its results come back on.
type call struct {
	ctx  context.Context
	m    int             // pixels contributed
	off  int             // row offset in the merged batch
	done chan callResult // buffered(1): flush delivery never blocks on an abandoned caller
}

// queue accumulates one pending merged batch. A queue lives for exactly
// one generation: created on the first enqueue of a key, removed from
// the map when taken for flush. All fields are guarded by Batcher.mu.
type queue struct {
	key    string
	n      int
	opt    core.Options // canonical
	bcfg   core.BatchConfig
	pixels []float64
	calls  []*call
	timer  *time.Timer
	first  time.Time
	taken  bool
	reason string // why the queue flushed, set when taken
}

// Batcher is the micro-batcher. Construct with New; Close before
// discarding (pending queues flush on Close so graceful drain never
// strands a waiter).
type Batcher struct {
	cfg Config

	// arriving counts upstream requests that may still add pixels: those
	// announced via Arrive (the serving layer calls it on handler entry,
	// before the request body is even decoded) plus callers inside Detect
	// that have not yet enqueued. The flush-on-idle signal: when it drops
	// to zero, nobody can join any queue before a timer would fire, so
	// waiting is pure latency.
	arriving atomic.Int64
	// arrivedSeq counts Arrive calls monotonically — the epoch the
	// idle-grace check compares to distinguish "quiet for a full grace
	// window" from "momentarily quiet between two serial requests".
	arrivedSeq atomic.Int64
	idleArmed  atomic.Bool
	flushSeq   atomic.Int64

	mu     sync.Mutex
	queues map[string]*queue
	closed bool

	bufPool sync.Pool // *[]float64 merged-batch buffers

	requests    *obs.Counter
	direct      *obs.Counter
	mergedPix   *obs.Counter
	abandoned   *obs.Counter
	flushes     *obs.Counter
	queueDepth  *obs.Gauge
	queueAgeMs  *obs.Gauge
	flushPixels *obs.Histogram
	flushWaitMs *obs.Histogram
	reasons     map[string]*obs.Counter
}

// New returns a Batcher publishing into cfg.Metrics. The coalesce.*
// metric families are registered eagerly so they appear on /metrics
// before the first flush.
func New(cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	m := cfg.Metrics
	b := &Batcher{
		cfg:         cfg,
		queues:      make(map[string]*queue),
		requests:    m.Counter("coalesce.requests"),             //lint:allow metricdoc -- no server exports it; goes with the package
		direct:      m.Counter("coalesce.direct"),               //lint:allow metricdoc -- no server exports it; goes with the package
		mergedPix:   m.Counter("coalesce.pixels"),               //lint:allow metricdoc -- no server exports it; goes with the package
		abandoned:   m.Counter("coalesce.abandoned"),            //lint:allow metricdoc -- no server exports it; goes with the package
		flushes:     m.Counter("coalesce.flushes"),              //lint:allow metricdoc -- no server exports it; goes with the package
		queueDepth:  m.Gauge("coalesce.queue.depth"),            //lint:allow metricdoc -- no server exports it; goes with the package
		queueAgeMs:  m.Gauge("coalesce.queue.age_ms"),           //lint:allow metricdoc -- no server exports it; goes with the package
		flushPixels: m.Histogram("coalesce.flush.pixels", nil),  //lint:allow metricdoc -- no server exports it; goes with the package
		flushWaitMs: m.Histogram("coalesce.flush.wait_ms", nil), //lint:allow metricdoc -- no server exports it; goes with the package
		reasons: map[string]*obs.Counter{
			ReasonSize:     m.Counter("coalesce.flush.reason.size"),     //lint:allow metricdoc -- no server exports it; goes with the package
			ReasonDeadline: m.Counter("coalesce.flush.reason.deadline"), //lint:allow metricdoc -- no server exports it; goes with the package
			ReasonIdle:     m.Counter("coalesce.flush.reason.idle"),     //lint:allow metricdoc -- no server exports it; goes with the package
			ReasonClose:    m.Counter("coalesce.flush.reason.close"),    //lint:allow metricdoc -- no server exports it; goes with the package
		},
	}
	return b
}

// Arrival tracks one upstream request from its entry into the serving
// layer until its pixels are enqueued (or it bails: decode error,
// validation failure, queue bypass). While any arrival is outstanding
// the batcher keeps queues open — a parked caller might yet get
// co-riders — so announcing arrivals early (before body decode) is what
// lets concurrent requests merge even when they never overlap inside
// Detect itself. A slow decoder can therefore delay an idle flush, but
// never past the queue's MaxWait deadline.
type Arrival struct {
	b    *Batcher
	done atomic.Bool
}

// Arrive announces an upstream request that will (probably) call Detect.
// The serving layer calls it on handler entry and defers Done as a
// backstop; Detect consumes the arrival the moment its pixels enqueue.
func (b *Batcher) Arrive() *Arrival {
	b.arriving.Add(1)
	b.arrivedSeq.Add(1)
	return &Arrival{b: b}
}

// Done marks the arrival complete. Idempotent and nil-safe; when the
// last outstanding arrival finishes, the batcher arms the idle-grace
// timer — if nobody new arrives within Config.IdleGrace, every pending
// queue flushes (waiting longer could only add latency, nobody is left
// to join).
func (a *Arrival) Done() {
	if a == nil || !a.done.CompareAndSwap(false, true) {
		return
	}
	if a.b.arriving.Add(-1) == 0 {
		a.b.armIdleFlush()
	}
}

// armIdleFlush schedules the quiescence check; at most one check chain
// is outstanding (idleArmed). Idleness is judged over the whole grace
// window, not at an instant: on a busy few-core host the instantaneous
// arrival count is zero at every scheduling point (each handler
// enqueues before the next gets the processor, and an overdue timer
// runs exactly when a waiter parks), so the check compares arrival
// epochs — if anything arrived since the window opened, the chain
// watches the next window instead of flushing.
func (b *Batcher) armIdleFlush() {
	if b.cfg.DisableIdleFlush || !b.idleArmed.CompareAndSwap(false, true) {
		return
	}
	b.idleCheck(b.arrivedSeq.Load())
}

func (b *Batcher) idleCheck(seen int64) {
	time.AfterFunc(b.cfg.IdleGrace, func() {
		if cur := b.arrivedSeq.Load(); cur != seen {
			b.idleCheck(cur) // traffic still flowing; watch the next window
			return
		}
		b.idleArmed.Store(false)
		if b.arriving.Load() != 0 {
			return // an arrival is mid-flight; its Done re-arms the chain
		}
		b.mu.Lock()
		var fls []*queue
		for _, q := range b.queues {
			fls = append(fls, b.takeLocked(q, ReasonIdle))
		}
		b.mu.Unlock()
		for _, fl := range fls {
			go b.run(fl)
		}
	})
}

// queueKey extends the options/length key with the worker count:
// merged pixels run under one BatchConfig, so only requests with the
// same Workers may share a queue.
func queueKey(n int, opt core.Options, bcfg core.BatchConfig) (string, error) {
	ok, err := opt.QueueKey(n)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s w=%d", ok, bcfg.Workers), nil
}

// Detect submits m pixels (flat, row-major, m*n values, NaN = missing)
// for detection under opt/bcfg and blocks until the shared flush
// carrying them completes, ctx is cancelled, or the merged run fails.
// The returned slice is the caller's view of the merged results (do not
// mutate past len). A cancelled ctx abandons only this caller: its
// pixels still compute, the other riders are unaffected, and the
// return is ctx.Err().
//
// arr is the request's Arrival ticket from an earlier Arrive (nil is
// fine: Detect then brackets the arrival itself, which keeps the
// lone-caller idle flush but can only observe callers overlapping
// inside Detect).
func (b *Batcher) Detect(ctx context.Context, arr *Arrival, pixels []float64, m, n int, opt core.Options, bcfg core.BatchConfig) ([]core.Result, FlushMeta, error) {
	b.requests.Inc()
	if arr == nil {
		arr = b.Arrive()
	}
	// Backstop for every early return below; the explicit Done at the
	// enqueue point is what gives the idle signal its timing.
	defer arr.Done()
	if m <= 0 || n <= 0 || len(pixels) != m*n {
		return nil, FlushMeta{}, fmt.Errorf("coalesce: %d values != %d pixels × %d dates", len(pixels), m, n)
	}
	key, err := queueKey(n, opt, bcfg)
	if err != nil {
		// Unresolvable options fail the same way DetectBatch would;
		// run direct so the caller gets the structured core error.
		arr.Done()
		return b.runDirect(ctx, pixels, m, n, opt, bcfg)
	}
	canon, err := opt.Canonical()
	if err != nil {
		arr.Done()
		return b.runDirect(ctx, pixels, m, n, opt, bcfg)
	}
	if m >= b.cfg.BatchPixels {
		// Already a full batch; queueing would only copy it around.
		arr.Done()
		return b.runDirect(ctx, pixels, m, n, canon, bcfg)
	}

	// The wait span is the caller's side of the stitch: it lives in the
	// request's own trace and carries the flush id its pixels rode in,
	// pointing at the synthetic coalesce-flush-<id> trace.
	wctx, sp := obs.StartSpan(ctx, "coalesce.wait")
	defer sp.End()
	sp.SetAttr("pixels", m)
	ctx = wctx

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		arr.Done()
		return b.runDirect(ctx, pixels, m, n, canon, bcfg)
	}
	q := b.queues[key]
	if q == nil {
		q = &queue{key: key, n: n, opt: canon, bcfg: bcfg, first: time.Now(), pixels: b.getBuf()}
		b.queues[key] = q
		qq := q
		q.timer = time.AfterFunc(b.cfg.MaxWait, func() { b.deadlineFlush(qq) })
	}
	c := &call{ctx: ctx, m: m, off: len(q.pixels) / n, done: make(chan callResult, 1)}
	q.pixels = append(q.pixels, pixels...)
	q.calls = append(q.calls, c)
	b.queueDepth.Add(int64(m))
	var fl *queue
	if len(q.pixels)/n >= b.cfg.BatchPixels {
		fl = b.takeLocked(q, ReasonSize)
	}
	b.mu.Unlock()

	// The flush runs on its own goroutine so the triggering caller keeps
	// the same contract as every parked waiter: cancelling its context
	// abandons its slice immediately instead of conscripting it into
	// finishing the whole merged batch.
	if fl != nil {
		go b.run(fl)
	}
	// Enqueued: this request can no longer add pixels anywhere. If it was
	// the last arrival in flight, the idle-grace timer arms — a lone
	// caller pays at most IdleGrace extra, and under concurrency the
	// flush waits until the co-riders that already entered the server
	// have enqueued.
	arr.Done()

	select {
	case r := <-c.done:
		sp.SetAttr("flush_id", r.meta.ID)
		sp.SetAttr("flush_pixels", r.meta.Pixels)
		sp.SetAttr("flush_callers", r.meta.Callers)
		sp.SetAttr("flush_reason", r.meta.Reason)
		return r.res, r.meta, r.err
	case <-ctx.Done():
		b.abandoned.Inc()
		sp.SetAttr("abandoned", true)
		return nil, FlushMeta{}, ctx.Err()
	}
}

// runDirect executes one caller's batch immediately on its own context
// — the bypass for large requests, unresolvable options and a closed
// batcher.
func (b *Batcher) runDirect(ctx context.Context, pixels []float64, m, n int, opt core.Options, bcfg core.BatchConfig) ([]core.Result, FlushMeta, error) {
	b.direct.Inc()
	batch, err := core.NewBatch(m, n, pixels)
	if err != nil {
		return nil, FlushMeta{}, err
	}
	start := time.Now()
	res, err := b.cfg.Detect(ctx, batch, opt, bcfg)
	meta := FlushMeta{Pixels: m, Callers: 1, Reason: ReasonDirect, Detect: time.Since(start)}
	return res, meta, err
}

// takeLocked detaches q for flushing: removes it from the map (the next
// enqueue of the key starts a fresh generation), stops its deadline
// timer and marks it taken so a stale timer fire is a no-op. Caller
// holds b.mu and must call run(q) after unlocking.
func (b *Batcher) takeLocked(q *queue, reason string) *queue {
	q.taken = true
	q.reason = reason
	q.timer.Stop()
	delete(b.queues, q.key)
	b.queueDepth.Add(-int64(len(q.pixels) / q.n))
	if c, ok := b.reasons[reason]; ok {
		c.Inc()
	}
	return q
}

// deadlineFlush is the MaxWait timer body.
func (b *Batcher) deadlineFlush(q *queue) {
	b.mu.Lock()
	var fl *queue
	if !q.taken {
		fl = b.takeLocked(q, ReasonDeadline)
	}
	b.mu.Unlock()
	if fl != nil {
		b.run(fl)
	}
}

// run executes one taken queue. It runs on the deadline timer's
// goroutine, a dedicated goroutine (size/idle flushes), or the closing
// goroutine — never inline in a waiter.: builds the merged context, runs the
// detection, records metrics/trace, demuxes per-caller slices, and
// recycles the batch buffer.
func (b *Batcher) run(fl *queue) {
	reason := fl.reason
	m := len(fl.pixels) / fl.n
	wait := time.Since(fl.first)

	// The merged run must not die with any single caller, so it runs on
	// a context detached from the triggering one (values — and thus the
	// span linkage when no flush span overrides it — survive, the
	// cancel chain does not). It is cancelled only when every rider is
	// gone: context.AfterFunc hooks each caller's Done and the last one
	// out turns off the lights.
	base := context.WithoutCancel(fl.calls[0].ctx)
	var sp *obs.Span
	start := time.Now()
	if b.cfg.Traces != nil {
		sp = obs.NewSpan("coalesce.flush")
		base = obs.ContextWithSpan(base, sp)
	}
	ctx, cancel := context.WithCancel(base)
	var live atomic.Int64
	live.Store(int64(len(fl.calls)))
	stops := make([]func() bool, len(fl.calls))
	for i, c := range fl.calls {
		stops[i] = context.AfterFunc(c.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}

	var res []core.Result
	batch, err := core.NewBatch(m, fl.n, fl.pixels)
	if err == nil {
		res, err = b.cfg.Detect(ctx, batch, fl.opt, fl.bcfg)
	}
	detect := time.Since(start)
	for _, stop := range stops {
		stop()
	}
	cancel()

	id := b.flushSeq.Add(1)
	b.flushes.Inc()
	b.mergedPix.Add(int64(m))
	b.flushPixels.Observe(float64(m))
	b.flushWaitMs.Observe(wait.Seconds() * 1e3)
	meta := FlushMeta{
		ID: id, Pixels: m, Callers: len(fl.calls),
		Reason: reason, Wait: wait, Detect: detect,
	}
	if sp != nil {
		sp.SetAttr("flush_id", id)
		sp.SetAttr("pixels", m)
		sp.SetAttr("callers", len(fl.calls))
		sp.SetAttr("reason", reason)
		sp.SetAttr("wait_ms", wait.Seconds()*1e3)
		if err != nil {
			sp.SetAttr("err", err.Error())
		}
		sp.End()
		node := sp.Node()
		b.cfg.Traces.Record(obs.Trace{
			RequestID: fmt.Sprintf("coalesce-flush-%d", id),
			Start:     start, Endpoint: "coalesce.flush",
			Pixels: m, Total: detect, Spans: &node,
		})
	}

	// Demux: every caller gets its own slice of the merged results, or
	// the merged error verbatim. The buffered channels make delivery to
	// abandoned callers a no-op instead of a leak.
	for _, c := range fl.calls {
		r := callResult{meta: meta, err: err}
		if err == nil {
			r.res = res[c.off : c.off+c.m : c.off+c.m]
		}
		c.done <- r
	}
	b.putBuf(fl.pixels)
}

// SampleQueueAge refreshes the coalesce.queue.age_ms gauge with the age
// of the oldest pending queue (0 when none are pending). A queue older
// than MaxWait means its deadline timer is wedged or starved — exactly
// the stuck-serving signal the diagnostics watcher wants to see, and one
// an enqueue-time metric can never show because age accrues while
// nothing happens. The SLO monitor's tick drives this.
func (b *Batcher) SampleQueueAge() {
	if b == nil {
		return
	}
	b.mu.Lock()
	var oldest time.Time
	for _, q := range b.queues {
		if oldest.IsZero() || q.first.Before(oldest) {
			oldest = q.first
		}
	}
	b.mu.Unlock()
	if oldest.IsZero() {
		b.queueAgeMs.Set(0)
		return
	}
	b.queueAgeMs.Set(time.Since(oldest).Milliseconds())
}

// Close flushes every pending queue (reason "close") and switches the
// batcher to direct pass-through. Safe to call more than once; callers
// arriving after Close run unbatched, so Close during graceful drain
// strands no one.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	var fls []*queue
	for _, q := range b.queues {
		fls = append(fls, b.takeLocked(q, ReasonClose))
	}
	b.mu.Unlock()
	for _, fl := range fls {
		b.run(fl)
	}
}

// getBuf / putBuf recycle merged-batch buffers across flushes — the
// steady-state serving path allocates no per-flush pixel storage.
func (b *Batcher) getBuf() []float64 {
	if v := b.bufPool.Get(); v != nil {
		return (*v.(*[]float64))[:0]
	}
	return nil
}

func (b *Batcher) putBuf(s []float64) {
	if cap(s) == 0 {
		return
	}
	b.bufPool.Put(&s)
}
