// Package sched provides the shared bounded worker pool behind every
// host-parallel fan-out in the repository (the batched detection
// strategies, the CLike baseline, stable-history trimming and the
// pipeline's phase overlap).
//
// The irregular per-pixel workload of the paper — every pixel has a
// different NaN pattern, hence a different effective problem size —
// makes static contiguous partitioning a poor fit: with the
// spatially-correlated cloud masks of internal/workload, adjacent pixels
// share their missing-value structure, so equally-sized chunks carry very
// unequal work and workers go idle (the load imbalance §III-C of the
// paper designs its same-size kernel batches around). The pool instead
// hands out small block-cyclic ranges from a single atomic counter:
// every worker "steals" the next block the moment it finishes its
// current one, so the imbalance is bounded by one block rather than by
// a whole chunk.
//
// The pool is bounded: at most `bound` helper goroutines run at any
// moment across all concurrent ForEach/Go calls, and the caller of a
// parallel loop always participates as worker 0. That guarantees
// progress (and freedom from pool-exhaustion deadlock) even when loops
// nest or the pool is saturated by background tasks.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"bfast/internal/obs"
)

// Scheduler metrics, published into the default obs registry (DESIGN.md
// §6). BlocksRun counts steal units actually executed; BlocksAbandoned
// counts steal units skipped because the loop's context was cancelled —
// the difference a cancelled request makes. Exported so tests (and
// /metrics consumers) can assert on cancellation behavior.
var (
	StatLoops           = obs.Default().Counter("sched.loops")
	StatBlocksRun       = obs.Default().Counter("sched.blocks.run")
	StatBlocksAbandoned = obs.Default().Counter("sched.blocks.abandoned")
	StatHelpersSpawned  = obs.Default().Counter("sched.helpers.spawned")
)

// Workload-skew introspection (DESIGN.md §7). StatWorkerBlocks is the
// distribution of steal units executed per worker per loop — flat for a
// balanced loop, long-tailed when a NaN-skewed scene makes some blocks
// much heavier than others. StatImbalancePct records, per multi-worker
// loop, how much extra the busiest worker carried over the mean
// (100·(max−mean)/mean): near 0 means stealing equalized the skew,
// large values mean block granularity is too coarse for the skew.
var (
	StatWorkerBlocks = obs.Default().Histogram("sched.worker.blocks", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024})
	StatImbalancePct = obs.Default().Histogram("sched.loop.imbalance_pct", []float64{1, 2, 5, 10, 25, 50, 100, 200})
	// StatImbalanceLast mirrors the latest imbalance sample as a gauge so
	// threshold watchers (the diagnostics profile-capture rules) can read
	// "how skewed is the scheduler right now" without unwinding histogram
	// deltas.
	StatImbalanceLast = obs.Default().Gauge("sched.loop.imbalance_last_pct")
)

// DefaultGrain is the default number of items per block-cyclic block.
// Small enough to balance NaN-skewed per-pixel costs, large enough that
// pixels of a block still share cache lines of the staged batch arrays
// and the atomic counter is not contended.
const DefaultGrain = 16

// Pool is a bounded worker pool. The zero value is not usable;
// construct with New or use the process-wide Shared pool.
type Pool struct {
	bound int
	sem   chan struct{}
}

// New returns a pool allowing at most bound concurrent helper
// goroutines (<= 0 means GOMAXPROCS).
func New(bound int) *Pool {
	if bound <= 0 {
		bound = runtime.GOMAXPROCS(0)
	}
	return &Pool{bound: bound, sem: make(chan struct{}, bound)}
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool, sized to GOMAXPROCS at first
// use. All library fan-outs run on it by default, so total helper
// concurrency stays bounded no matter how many batches are in flight.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}

// Bound returns the pool's helper-goroutine bound.
func (p *Pool) Bound() int { return p.bound }

// Workers returns the effective worker count for a loop over m items
// when the caller requested `requested` workers (<= 0 means the pool
// bound +1 for the participating caller, mirroring the old
// GOMAXPROCS default). The result is clamped to [1, m] for m > 0 and
// is 0 for m <= 0. Callers sizing per-worker scratch should allocate
// exactly this many slots.
func (p *Pool) Workers(requested, m int) int {
	if m <= 0 {
		return 0
	}
	w := requested
	if w <= 0 {
		w = p.bound
	}
	if w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs body over [0, m) split into block-cyclic ranges of
// `grain` items (<= 0 means DefaultGrain), dispatched to at most
// `workers` workers (see Workers for the <= 0 default) from a shared
// atomic counter. body is called with the worker id in [0, Workers())
// — stable per goroutine, so it can index per-worker scratch — and a
// half-open range [lo, hi).
//
// The calling goroutine always executes as worker 0; helpers are
// spawned only while the pool has capacity, so nested or concurrent
// loops degrade to fewer workers instead of deadlocking.
func (p *Pool) ForEach(m, workers, grain int, body func(worker, lo, hi int)) {
	//lint:allow ctxfirst -- pre-ctx wrapper for callers with no request context; new code calls ForEachCtx
	_ = p.ForEachCtx(context.Background(), m, workers, grain, body)
}

// ForEachCtx is ForEach with cooperative cancellation at steal-unit
// granularity: every worker re-checks ctx before claiming its next
// block, so a cancelled context abandons the remaining blocks while
// in-flight blocks run to completion (no partial body calls, no torn
// per-pixel state). It returns ctx.Err() if the loop was cut short and
// nil if every block ran. An already-cancelled context executes zero
// blocks.
func (p *Pool) ForEachCtx(ctx context.Context, m, workers, grain int, body func(worker, lo, hi int)) error {
	if m <= 0 {
		return ctx.Err()
	}
	StatLoops.Inc()
	w := p.Workers(workers, m)
	g := grain
	if g <= 0 {
		g = DefaultGrain
	}
	blocks := (m + g - 1) / g
	if w > blocks {
		w = blocks
	}
	_, sp := obs.StartSpan(ctx, "sched.foreach")
	sp.SetAttr("items", int64(m))
	sp.SetAttr("blocks", int64(blocks))
	sp.SetAttr("workers", int64(w))
	sp.SetAttr("grain", int64(g))
	counts := make([]int64, w)
	var next atomic.Int64
	run := func(id int) {
		n := int64(0)
		for ctx.Err() == nil {
			b := int(next.Add(1)) - 1
			if b >= blocks {
				break
			}
			lo := b * g
			hi := lo + g
			if hi > m {
				hi = m
			}
			StatBlocksRun.Inc()
			body(id, lo, hi)
			n++
		}
		counts[id] = n
	}
	if w <= 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for id := 1; id < w; id++ {
			select {
			case p.sem <- struct{}{}:
				wg.Add(1)
				StatHelpersSpawned.Inc()
				go func(id int) {
					defer wg.Done()
					defer func() { <-p.sem }()
					run(id)
				}(id)
			default:
				// Pool saturated: proceed with the helpers we got; the
				// caller below still drains every block.
			}
		}
		run(0)
		wg.Wait() // also the happens-before edge for the helpers' counts[id] writes
	}
	recordLoopSkew(sp, counts)
	if err := ctx.Err(); err != nil {
		claimed := int(next.Load())
		if claimed > blocks {
			claimed = blocks
		}
		abandoned := int64(blocks - claimed)
		StatBlocksAbandoned.Add(abandoned)
		sp.SetAttr("abandoned", abandoned)
		sp.End()
		return err
	}
	sp.End()
	return nil
}

// recordLoopSkew publishes the per-worker steal counts of one finished
// loop into the skew histograms and onto its span. A worker that claimed
// zero blocks (pool saturated before it got a slot, or the loop drained
// first) still counts: an all-but-one-idle loop IS the skew signal.
func recordLoopSkew(sp *obs.Span, counts []int64) {
	var total, max int64
	for _, c := range counts {
		StatWorkerBlocks.Observe(float64(c))
		total += c
		if c > max {
			max = c
		}
	}
	if len(counts) > 1 && total > 0 {
		mean := float64(total) / float64(len(counts))
		imb := 100 * (float64(max) - mean) / mean
		StatImbalancePct.Observe(imb)
		StatImbalanceLast.Set(int64(imb))
		sp.SetAttr("imbalance_pct", int64(imb))
	}
}

// ForEachScratchCtx is ForEachCtx with a per-worker scratch lifecycle:
// mk is invoked once per participating worker (lazily, on its first
// block) and the same scratch value is passed to every body call of that
// worker — the pattern the paper's C baseline uses per OpenMP thread
// (footnote 10) to keep the hot loop allocation-free. Cancellation is
// checked before every block claim.
func ForEachScratchCtx[S any](ctx context.Context, p *Pool, m, workers, grain int, mk func() S, body func(s S, lo, hi int)) error {
	if m <= 0 {
		return ctx.Err()
	}
	w := p.Workers(workers, m)
	scratch := make([]S, w)
	made := make([]bool, w)
	return p.ForEachCtx(ctx, m, w, grain, func(id, lo, hi int) {
		if !made[id] {
			scratch[id] = mk()
			made[id] = true
		}
		body(scratch[id], lo, hi)
	})
}

// Task is a handle to an asynchronous function started with Go.
type Task struct {
	done chan struct{}
	err  error
}

// Go runs fn asynchronously. If the pool has no capacity the function
// runs synchronously in the caller (the bounded-pool equivalent of
// "go fn()"), so Go never blocks waiting for a slot. The returned
// Task's Wait blocks until fn has finished and returns its error.
func (p *Pool) Go(fn func() error) *Task {
	t := &Task{done: make(chan struct{})}
	select {
	case p.sem <- struct{}{}:
		go func() {
			defer close(t.done)
			defer func() { <-p.sem }()
			t.err = fn()
		}()
	default:
		t.err = fn()
		close(t.done)
	}
	return t
}

// Wait blocks until the task completes and returns its error.
func (t *Task) Wait() error {
	<-t.done
	return t.err
}
