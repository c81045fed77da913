package coalesce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bfast/internal/core"
	"bfast/internal/leakcheck"
	"bfast/internal/obs"
)

// testN / testHistory give the smallest valid workload: K=8 regressors
// need at least 8 valid history dates.
const (
	testN       = 20
	testHistory = 10
)

func testOptions() core.Options { return core.DefaultOptions(testHistory) }

// pixelSeries builds one deterministic series whose identity is encoded
// in its values, so a demux mix-up changes results.
func pixelSeries(id int) []float64 {
	s := make([]float64, testN)
	for t := range s {
		s[t] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(t)/23) + 0.001*float64(id%97)
	}
	return s
}

func flatPixels(ids ...int) []float64 {
	var out []float64
	for _, id := range ids {
		out = append(out, pixelSeries(id)...)
	}
	return out
}

// recordingDetect wraps core.DetectBatch and records every merged batch
// it ran (sizes and options), so tests can assert what was coalesced.
type recordingDetect struct {
	mu      sync.Mutex
	batches []recordedBatch
}

type recordedBatch struct {
	m   int
	opt core.Options
}

func (r *recordingDetect) fn(ctx context.Context, b *core.Batch, opt core.Options, cfg core.BatchConfig) ([]core.Result, error) {
	r.mu.Lock()
	r.batches = append(r.batches, recordedBatch{m: b.M, opt: opt})
	r.mu.Unlock()
	return core.DetectBatch(ctx, b, opt, cfg)
}

func (r *recordingDetect) recorded() []recordedBatch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recordedBatch(nil), r.batches...)
}

// expected computes the per-request ground truth for one caller's
// pixels — what an uncoalesced server would have returned.
func expected(t *testing.T, pixels []float64, m int, opt core.Options) []core.Result {
	t.Helper()
	b, err := core.NewBatch(m, testN, pixels)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectBatch(context.Background(), b, opt, core.BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResults(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	eq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	for i := range a {
		p, q := a[i], b[i]
		if p.Status != q.Status || p.BreakIndex != q.BreakIndex ||
			p.ValidHistory != q.ValidHistory || p.Valid != q.Valid ||
			!eq(p.Sigma, q.Sigma) || !eq(p.MosumMean, q.MosumMean) {
			return false
		}
	}
	return true
}

// TestSizeFlush: four 1-pixel callers with a 4-pixel threshold merge
// into exactly one flush, and every caller gets its own slice back.
func TestSizeFlush(t *testing.T) {
	leakcheck.Check(t)
	rec := &recordingDetect{}
	b := New(Config{
		BatchPixels: 4, MaxWait: 5 * time.Second, DisableIdleFlush: true,
		Detect: rec.fn, Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	var wg sync.WaitGroup
	metas := make([]FlushMeta, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			px := flatPixels(i)
			res, meta, err := b.Detect(context.Background(), nil, px, 1, testN, testOptions(), core.BatchConfig{})
			metas[i], errs[i] = meta, err
			if err == nil && !sameResults(res, expected(t, px, 1, testOptions())) {
				errs[i] = fmt.Errorf("caller %d got someone else's results", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i, m := range metas {
		if m.Reason != ReasonSize || m.Pixels != 4 || m.Callers != 4 {
			t.Errorf("caller %d meta = %+v, want size flush of 4 pixels / 4 callers", i, m)
		}
		if m.ID != metas[0].ID {
			t.Errorf("caller %d rode flush %d, caller 0 rode %d — should share", i, m.ID, metas[0].ID)
		}
	}
	if got := rec.recorded(); len(got) != 1 || got[0].m != 4 {
		t.Errorf("recorded batches %+v, want one merged batch of 4", got)
	}
}

// TestDeadlineFlush: a queue below the size threshold flushes when
// MaxWait elapses, not before.
func TestDeadlineFlush(t *testing.T) {
	leakcheck.Check(t)
	rec := &recordingDetect{}
	b := New(Config{
		BatchPixels: 1000, MaxWait: 40 * time.Millisecond, DisableIdleFlush: true,
		Detect: rec.fn, Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	start := time.Now()
	var wg sync.WaitGroup
	metas := make([]FlushMeta, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, meta, err := b.Detect(context.Background(), nil, flatPixels(i), 1, testN, testOptions(), core.BatchConfig{})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			metas[i] = meta
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("deadline flush fired after %v, before the 40ms deadline", elapsed)
	}
	for i, m := range metas {
		if m.Reason != ReasonDeadline {
			t.Errorf("caller %d flushed for %q, want deadline", i, m.Reason)
		}
	}
	if got := rec.recorded(); len(got) != 1 || got[0].m != 2 {
		t.Errorf("recorded batches %+v, want one merged batch of 2", got)
	}
}

// TestIdleFlush: a lone caller does not wait out MaxWait — with no
// other caller in flight the queue flushes immediately, so off-peak
// coalescing adds no latency.
func TestIdleFlush(t *testing.T) {
	leakcheck.Check(t)
	b := New(Config{
		BatchPixels: 1000, MaxWait: 10 * time.Second,
		Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	start := time.Now()
	px := flatPixels(7)
	res, meta, err := b.Detect(context.Background(), nil, px, 1, testN, testOptions(), core.BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lone caller took %v — idle flush did not fire", elapsed)
	}
	if meta.Reason != ReasonIdle {
		t.Errorf("flush reason %q, want idle", meta.Reason)
	}
	if !sameResults(res, expected(t, px, 1, testOptions())) {
		t.Error("idle-flushed results differ from the per-request path")
	}
}

// TestMixedOptionsIsolation: two different option sets never share a
// merged batch, while equivalent encodings of the same options do.
func TestMixedOptionsIsolation(t *testing.T) {
	leakcheck.Check(t)
	rec := &recordingDetect{}
	b := New(Config{
		BatchPixels: 2, MaxWait: 5 * time.Second, DisableIdleFlush: true,
		Detect: rec.fn, Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	optA := testOptions()
	optB := testOptions()
	optB.Level = 0.01 // different boundary scale → different results

	// Equivalent encoding of optA: explicit Lambda equal to the table
	// value. Must share optA's queue.
	lam, err := optA.ResolveLambda()
	if err != nil {
		t.Fatal(err)
	}
	optA2 := optA
	optA2.Lambda = lam
	optA2.Level = 0

	var wg sync.WaitGroup
	run := func(i int, opt core.Options, wantReason string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			px := flatPixels(i)
			res, meta, err := b.Detect(context.Background(), nil, px, 1, testN, opt, core.BatchConfig{})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if meta.Reason != wantReason {
				t.Errorf("caller %d flush reason %q, want %q", i, meta.Reason, wantReason)
			}
			if !sameResults(res, expected(t, px, 1, opt)) {
				t.Errorf("caller %d (opts %+v) got wrong results", i, opt)
			}
		}()
	}
	// optA and its equivalent encoding fill one queue (size 2 → flush);
	// the two optB callers fill the other.
	run(1, optA, ReasonSize)
	run(2, optA2, ReasonSize)
	run(3, optB, ReasonSize)
	run(4, optB, ReasonSize)
	wg.Wait()

	got := rec.recorded()
	if len(got) != 2 {
		t.Fatalf("recorded %d merged batches, want 2 (one per option set): %+v", len(got), got)
	}
	for _, rb := range got {
		if rb.m != 2 {
			t.Errorf("merged batch of %d pixels, want 2 — queues leaked across option sets", rb.m)
		}
	}
	// One batch must have run with each boundary scale.
	lamB, err := optB.ResolveLambda()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, rb := range got {
		seen[rb.opt.Lambda] = true
	}
	if !seen[lam] || !seen[lamB] {
		t.Errorf("merged batches ran with lambdas %v, want both %g and %g", seen, lam, lamB)
	}
}

// TestCancelMidQueue: a caller that cancels while queued gets its own
// ctx error immediately; the other riders of the flush are unaffected.
func TestCancelMidQueue(t *testing.T) {
	leakcheck.Check(t)
	b := New(Config{
		BatchPixels: 100, MaxWait: 60 * time.Millisecond, DisableIdleFlush: true,
		Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, _, err := b.Detect(ctxA, nil, flatPixels(1), 1, testN, testOptions(), core.BatchConfig{})
		errA <- err
	}()

	pxB := flatPixels(2)
	resB := make(chan []core.Result, 1)
	errB := make(chan error, 1)
	go func() {
		res, _, err := b.Detect(context.Background(), nil, pxB, 1, testN, testOptions(), core.BatchConfig{})
		resB <- res
		errB <- err
	}()

	// Let both enqueue, then abandon A before the deadline flush.
	time.Sleep(20 * time.Millisecond)
	cancelA()
	select {
	case err := <-errA:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled caller did not return promptly")
	}
	select {
	case err := <-errB:
		if err != nil {
			t.Fatalf("surviving caller failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("surviving caller never completed")
	}
	if !sameResults(<-resB, expected(t, pxB, 1, testOptions())) {
		t.Error("surviving caller's results were disturbed by the abandoned rider")
	}
}

// TestErrorFanOut: a merged batch error is propagated verbatim to every
// waiter of the flush.
func TestErrorFanOut(t *testing.T) {
	leakcheck.Check(t)
	sentinel := errors.New("merged batch failed")
	b := New(Config{
		BatchPixels: 2, MaxWait: 5 * time.Second, DisableIdleFlush: true,
		Detect: func(context.Context, *core.Batch, core.Options, core.BatchConfig) ([]core.Result, error) {
			return nil, sentinel
		},
		Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.Detect(context.Background(), nil, flatPixels(i), 1, testN, testOptions(), core.BatchConfig{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, sentinel) {
			t.Errorf("caller %d got %v, want the merged batch error", i, err)
		}
	}
}

// TestAllCallersCancelledCancelsMergedRun: the merged context stays
// live while any rider remains and is cancelled when the last one
// leaves.
func TestAllCallersCancelledCancelsMergedRun(t *testing.T) {
	leakcheck.Check(t)
	detectCancelled := make(chan struct{})
	b := New(Config{
		BatchPixels: 2, MaxWait: 5 * time.Second, DisableIdleFlush: true,
		Detect: func(ctx context.Context, _ *core.Batch, _ core.Options, _ core.BatchConfig) ([]core.Result, error) {
			<-ctx.Done() // hold the merged run until the riders decide
			close(detectCancelled)
			return nil, ctx.Err()
		},
		Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, c := range []context.Context{ctx1, ctx2} {
		wg.Add(1)
		go func(ctx context.Context, id int) {
			defer wg.Done()
			_, _, err := b.Detect(ctx, nil, flatPixels(id), 1, testN, testOptions(), core.BatchConfig{})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("caller got %v, want context.Canceled", err)
			}
		}(c, 1)
	}

	cancel1()
	select {
	case <-detectCancelled:
		t.Fatal("merged run was cancelled while a rider was still waiting")
	case <-time.After(50 * time.Millisecond):
	}
	cancel2()
	select {
	case <-detectCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("merged run was not cancelled after the last rider left")
	}
	wg.Wait()
}

// TestCloseFlushesPending: Close drains queued callers (reason
// "close"), and callers arriving afterwards run direct instead of
// queueing forever.
func TestCloseFlushesPending(t *testing.T) {
	leakcheck.Check(t)
	b := New(Config{
		BatchPixels: 100, MaxWait: time.Hour, DisableIdleFlush: true,
		Metrics: obs.NewRegistry(),
	})

	metaC := make(chan FlushMeta, 1)
	errC := make(chan error, 1)
	go func() {
		_, meta, err := b.Detect(context.Background(), nil, flatPixels(3), 1, testN, testOptions(), core.BatchConfig{})
		metaC <- meta
		errC <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it enqueue
	b.Close()
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("queued caller failed on Close: %v", err)
		}
		if m := <-metaC; m.Reason != ReasonClose {
			t.Errorf("flush reason %q, want close", m.Reason)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close stranded a queued caller")
	}

	// After Close: direct pass-through.
	_, meta, err := b.Detect(context.Background(), nil, flatPixels(4), 1, testN, testOptions(), core.BatchConfig{})
	if err != nil {
		t.Fatalf("post-Close caller failed: %v", err)
	}
	if meta.Reason != ReasonDirect {
		t.Errorf("post-Close flush reason %q, want direct", meta.Reason)
	}
}

// TestLargeRequestBypasses: a request already at the flush threshold
// skips the queue.
func TestLargeRequestBypasses(t *testing.T) {
	leakcheck.Check(t)
	rec := &recordingDetect{}
	b := New(Config{
		BatchPixels: 2, MaxWait: time.Second,
		Detect: rec.fn, Metrics: obs.NewRegistry(),
	})
	defer b.Close()
	px := flatPixels(1, 2, 3)
	res, meta, err := b.Detect(context.Background(), nil, px, 3, testN, testOptions(), core.BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != ReasonDirect {
		t.Errorf("3-pixel request with threshold 2 flushed as %q, want direct", meta.Reason)
	}
	if !sameResults(res, expected(t, px, 3, testOptions())) {
		t.Error("direct results differ from the per-request path")
	}
}

// TestStressConcurrentSmallCallers is the race-detector stress test:
// ≥64 concurrent callers firing 1–4-pixel requests across two option
// sets, with a fraction cancelling mid-flight; every completed caller
// must get results bit-identical to its own per-request run. Every
// caller is traced, so a merged run writes spans into the trace of its
// first rider, which may seal it mid-flush.
func TestStressConcurrentSmallCallers(t *testing.T) {
	leakcheck.Check(t)
	b := New(Config{
		BatchPixels: 16, MaxWait: time.Millisecond,
		Metrics: obs.NewRegistry(),
	})
	defer b.Close()

	optA := testOptions()
	optB := testOptions()
	optB.NoTrend = true

	// Ground truth per pixel id, per option set, computed once.
	want := map[bool][][]core.Result{}
	for _, noTrend := range []bool{false, true} {
		opt := optA
		if noTrend {
			opt = optB
		}
		per := make([][]core.Result, 8)
		for id := 0; id < 8; id++ {
			per[id] = expected(t, flatPixels(id), 1, opt)
		}
		want[noTrend] = per
	}

	const callers = 64
	const iters = 6
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				m := 1 + (g+it)%4
				opt := optA
				noTrend := (g+it)%3 == 0
				if noTrend {
					opt = optB
				}
				ids := make([]int, m)
				for j := range ids {
					ids[j] = (g*iters + it + j) % 8
				}
				px := flatPixels(ids...)
				root := obs.NewSpan("caller")
				ctx := obs.ContextWithSpan(context.Background(), root)
				cancelled := (g+it)%7 == 0
				var cancel context.CancelFunc
				if cancelled {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(g%3)*100*time.Microsecond)
				}
				res, _, err := b.Detect(ctx, nil, px, m, testN, opt, core.BatchConfig{})
				root.End()
				if cancel != nil {
					cancel()
				}
				if err != nil {
					if cancelled && errors.Is(err, context.DeadlineExceeded) {
						continue // its own abandonment, by design
					}
					t.Errorf("caller %d iter %d: %v", g, it, err)
					failures.Add(1)
					continue
				}
				for j, id := range ids {
					if !sameResults(res[j:j+1], want[noTrend][id]) {
						t.Errorf("caller %d iter %d pixel %d: coalesced result differs from per-request", g, it, j)
						failures.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d mismatches under concurrent load", failures.Load())
	}
}
