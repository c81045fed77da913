package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndicesOnce checks that every index of [0, m) is
// visited exactly once for a spread of sizes, worker counts and grains.
func TestForEachCoversAllIndicesOnce(t *testing.T) {
	p := New(8)
	for _, m := range []int{0, 1, 2, 15, 16, 17, 64, 1000, 4097} {
		for _, w := range []int{0, 1, 2, 7, 64} {
			for _, g := range []int{0, 1, 3, 64} {
				seen := make([]int32, m)
				p.ForEach(m, w, g, func(_, lo, hi int) {
					if lo < 0 || hi > m || lo >= hi {
						t.Errorf("m=%d w=%d g=%d: bad range [%d,%d)", m, w, g, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("m=%d w=%d g=%d: index %d visited %d times", m, w, g, i, c)
					}
				}
			}
		}
	}
}

// TestForEachWorkerIDsInRange checks the scratch-indexing contract:
// ids are within [0, Workers(requested, m)) and stable per goroutine.
func TestForEachWorkerIDsInRange(t *testing.T) {
	p := New(4)
	const m = 500
	w := p.Workers(0, m)
	var mu sync.Mutex
	used := map[int]bool{}
	p.ForEach(m, 0, 4, func(id, lo, hi int) {
		if id < 0 || id >= w {
			t.Errorf("worker id %d out of range [0,%d)", id, w)
		}
		mu.Lock()
		used[id] = true
		mu.Unlock()
	})
	if len(used) == 0 {
		t.Fatal("no workers ran")
	}
}

func TestWorkersClamp(t *testing.T) {
	p := New(6)
	cases := []struct{ req, m, want int }{
		{0, 100, 6}, // default = bound
		{3, 100, 3}, // explicit request
		{12, 4, 4},  // workers > m clamps to m
		{5, 0, 0},   // empty loop
		{0, -3, 0},  // negative m
		{1, 1, 1},   // minimum
		{-2, 10, 6}, // negative request = default
		{100, 1, 1}, // single item
	}
	for _, c := range cases {
		if got := p.Workers(c.req, c.m); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.req, c.m, got, c.want)
		}
	}
}

// TestForEachEmptyAndTiny: m == 0 must not call body; m smaller than any
// worker/grain combination must still cover everything.
func TestForEachEmptyAndTiny(t *testing.T) {
	p := New(8)
	called := false
	p.ForEach(0, 8, 16, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("body called for m == 0")
	}
	var n int32
	p.ForEach(1, 64, 1024, func(_, lo, hi int) { atomic.AddInt32(&n, int32(hi-lo)) })
	if n != 1 {
		t.Fatalf("tiny loop covered %d items, want 1", n)
	}
}

// TestForEachScratchLifecycle checks that scratch is created once per
// participating worker and reused across its blocks.
func TestForEachScratchLifecycle(t *testing.T) {
	p := New(4)
	const m = 1000
	var created int32
	type scratch struct{ sum int }
	var mu sync.Mutex
	total := 0
	err := ForEachScratchCtx(context.Background(), p, m, 0, 8, func() *scratch {
		atomic.AddInt32(&created, 1)
		return &scratch{}
	}, func(s *scratch, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.sum += i
		}
		mu.Lock()
		total += hi - lo
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != m {
		t.Fatalf("covered %d items, want %d", total, m)
	}
	if c := int(created); c < 1 || c > p.Workers(0, m) {
		t.Fatalf("created %d scratches, want between 1 and %d", c, p.Workers(0, m))
	}
}

// TestForEachNested: a parallel loop inside a parallel loop must not
// deadlock even when the pool is fully saturated, because callers
// always participate.
func TestForEachNested(t *testing.T) {
	p := New(2)
	var n int64
	p.ForEach(8, 8, 1, func(_, lo, hi int) {
		p.ForEach(100, 8, 4, func(_, l, h int) {
			atomic.AddInt64(&n, int64(h-l))
		})
	})
	if n != 800 {
		t.Fatalf("nested loops covered %d, want 800", n)
	}
}

func TestGoRunsAndPropagatesError(t *testing.T) {
	p := New(2)
	boom := errors.New("boom")
	tk1 := p.Go(func() error { return nil })
	tk2 := p.Go(func() error { return boom })
	if err := tk1.Wait(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := tk2.Wait(); err != boom {
		t.Fatalf("got %v, want boom", err)
	}
}

// TestGoSaturatedRunsInline: with a zero-capacity... the bound is at
// least 1, so saturate it with a blocked task and verify Go still
// completes synchronously rather than blocking.
func TestGoSaturatedRunsInline(t *testing.T) {
	p := New(1)
	release := make(chan struct{})
	bg := p.Go(func() error { <-release; return nil })
	ran := false
	tk := p.Go(func() error { ran = true; return nil })
	if err := tk.Wait(); err != nil || !ran {
		t.Fatal("saturated Go must run inline")
	}
	close(release)
	if err := bg.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestForEachCtxPreCancelled: an already-cancelled context must execute
// zero steal units and return context.Canceled promptly.
func TestForEachCtxPreCancelled(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := StatBlocksRun.Value()
	called := int32(0)
	err := p.ForEachCtx(ctx, 10000, 4, 16, func(_, _, _ int) { atomic.AddInt32(&called, 1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called != 0 {
		t.Fatalf("%d blocks ran under a pre-cancelled context", called)
	}
	if d := StatBlocksRun.Value() - before; d != 0 {
		t.Fatalf("steal-unit counter advanced by %d under a pre-cancelled context", d)
	}
}

// TestForEachCtxMidLoopCancel: cancelling from inside a block abandons
// the remaining steal units (in-flight blocks finish; later ones are
// never claimed) and the abandoned counter accounts for them.
func TestForEachCtxMidLoopCancel(t *testing.T) {
	p := New(1) // single worker: deterministic sequential block order
	ctx, cancel := context.WithCancel(context.Background())
	const m, grain = 1000, 10
	beforeAbandoned := StatBlocksAbandoned.Value()
	ran := 0
	err := p.ForEachCtx(ctx, m, 1, grain, func(_, lo, hi int) {
		ran++
		if ran == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d blocks, want exactly 3 (in-flight finishes, rest abandoned)", ran)
	}
	wantAbandoned := int64(m/grain - 3)
	if d := StatBlocksAbandoned.Value() - beforeAbandoned; d != wantAbandoned {
		t.Fatalf("abandoned counter advanced by %d, want %d", d, wantAbandoned)
	}
}

// TestForEachCtxUncancelledReturnsNil: the ctx path must be a strict
// superset of ForEach — full coverage, nil error.
func TestForEachCtxUncancelledReturnsNil(t *testing.T) {
	p := New(4)
	seen := make([]int32, 777)
	err := p.ForEachCtx(context.Background(), len(seen), 0, 8, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestForEachScratchCtxCancel: the scratch variant propagates
// cancellation the same way.
func TestForEachScratchCtxCancel(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachScratchCtx(ctx, p, 100, 2, 4, func() int { return 0 }, func(_, _, _ int) {
		t.Error("body ran under a pre-cancelled context")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedIsSingletonAndBounded(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared must return the same pool")
	}
	if Shared().Bound() < 1 {
		t.Fatal("shared pool must have positive bound")
	}
}

// TestLoopSkewMetrics: per-worker steal counts must sum to the block
// count, and a multi-worker loop must record one imbalance sample.
func TestLoopSkewMetrics(t *testing.T) {
	beforeBlocks := StatWorkerBlocks.Count()
	beforeImb := StatImbalancePct.Count()

	p := New(4)
	var ran atomic.Int64
	p.ForEach(1000, 4, 8, func(_, lo, hi int) { ran.Add(int64(hi - lo)) })
	if ran.Load() != 1000 {
		t.Fatalf("ran %d items, want 1000", ran.Load())
	}

	afterBlocks := StatWorkerBlocks.Count()
	afterImb := StatImbalancePct.Count()
	// 1000 items at grain 8 -> 125 blocks; one count sample per worker.
	// Other loops (helpers of other tests) may land concurrently, so
	// assert >= rather than ==.
	if afterBlocks-beforeBlocks < 1 {
		t.Fatalf("no per-worker block samples recorded (%d -> %d)", beforeBlocks, afterBlocks)
	}
	if afterImb-beforeImb < 1 {
		t.Fatalf("no imbalance sample recorded for a multi-worker loop")
	}
}

// TestRecordLoopSkew pins the imbalance computation directly.
func TestRecordLoopSkew(t *testing.T) {
	sumBefore := StatImbalancePct.Sum()
	// max=30, mean=15 -> 100*(30-15)/15 = 100%.
	recordLoopSkew(nil, []int64{0, 30})
	nAfter := StatImbalancePct.Count()
	if got := StatImbalancePct.Sum() - sumBefore; got != 100 {
		t.Fatalf("imbalance sample = %v, want 100", got)
	}
	// Single-worker and empty loops must not record imbalance.
	recordLoopSkew(nil, []int64{7})
	recordLoopSkew(nil, []int64{0, 0})
	if StatImbalancePct.Count() != nAfter {
		t.Fatal("single-worker or empty loop recorded an imbalance sample")
	}
}

// TestForEachCtxOneWorkerAllocs: a one-worker loop runs inline in the
// caller and, on a context without a span, allocates nothing — no
// worker closure, steal counter or per-worker counts. Both one-worker
// cases are covered: one requested worker, and a loop of one block.
func TestForEachCtxOneWorkerAllocs(t *testing.T) {
	p := New(4)
	ctx := context.Background()
	sum := 0
	body := func(_, lo, hi int) { sum += hi - lo }
	for _, c := range []struct{ m, workers int }{{100, 1}, {DefaultGrain, 0}} {
		if n := testing.AllocsPerRun(100, func() {
			if err := p.ForEachCtx(ctx, c.m, c.workers, 0, body); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("m=%d workers=%d: a one-worker loop allocates %v times", c.m, c.workers, n)
		}
	}
	if sum != 101*(100+DefaultGrain) {
		t.Fatalf("visited %d items, want %d", sum, 101*(100+DefaultGrain))
	}
}
