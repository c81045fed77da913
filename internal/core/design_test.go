package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The tests below pin the keyed design tables (getDesign): a call whose
// shape matches the pooled entry's key reuses its tables, any other
// refills them, and either way DetectBatch stays bit-identical to
// scalar Detect.

// servingN and servingHistory are the shape of every request of the
// ledger's serve-small workload, which takes default options.
const servingN, servingHistory = 228, 114

// shapeVariants returns the serving shape and one shape per key field
// that differs from it in that field alone. Alternating them means every
// call follows one of a different key, so a key missing any field hands
// a variant the serving shape's tables. Each variant is the direction
// that shows: a longer series or history than the stale tables cover,
// other regressors or other values.
func shapeVariants() []struct {
	name string
	n    int
	opt  Options
} {
	base := DefaultOptions(servingHistory)
	vary := func(f func(o *Options)) Options { o := base; f(&o); return o }
	return []struct {
		name string
		n    int
		opt  Options
	}{
		{"base", servingN, base},
		{"n", servingN + 1, base},
		{"history", servingN, vary(func(o *Options) { o.History++ })},
		{"harmonics", servingN, vary(func(o *Options) { o.Harmonics = 2 })},
		{"frequency", servingN, vary(func(o *Options) { o.Frequency = 12 })},
		{"noTrend", servingN, vary(func(o *Options) { o.NoTrend = true })},
	}
}

// TestDetectBatchAlternatingShapes: base, variant, base, next variant, …
// over a few rounds, every call bit-identical to scalar Detect.
func TestDetectBatchAlternatingShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	shapes := shapeVariants()
	batches := make([]*Batch, len(shapes))
	want := make([][]Result, len(shapes))
	for i, sh := range shapes {
		batches[i] = randomBatch(rng, 3, sh.n, 0.3)
		want[i] = scalarOracle(t, batches[i], sh.opt)
	}
	prev := "nothing"
	for round := 0; round < 3; round++ {
		for v := 1; v < len(shapes); v++ {
			for _, i := range []int{0, v} {
				got, err := DetectBatch(context.Background(), batches[i], shapes[i].opt, BatchConfig{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, want[i], got, fmt.Sprintf("round %d: %s after %s", round, shapes[i].name, prev))
				prev = shapes[i].name
			}
		}
	}
}

// TestDetectBatchShapesConcurrent: four goroutines cycle through the
// shapes at once, each from a different starting shape, so entries of
// every key pass between them through the pool. Run under make race.
func TestDetectBatchShapesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	shapes := shapeVariants()
	batches := make([]*Batch, len(shapes))
	want := make([][]Result, len(shapes))
	for i, sh := range shapes {
		batches[i] = randomBatch(rng, 5, sh.n, 0.4)
		want[i] = scalarOracle(t, batches[i], sh.opt)
	}
	const goroutines, calls = 4, 60
	got := make([][][]Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([][]Result, calls)
			for c := 0; c < calls; c++ {
				i := (g + c) % len(shapes)
				if got[g][c], errs[g] = DetectBatch(context.Background(), batches[i], shapes[i].opt, BatchConfig{Workers: 1}); errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for c, res := range got[g] {
			i := (g + c) % len(shapes)
			assertBitIdentical(t, want[i], res, fmt.Sprintf("goroutine %d call %d (%s)", g, c, shapes[i].name))
		}
	}
}

// TestDetectBatchSmallAllocs: a warm one-pixel call at the serving shape
// takes its design tables from the pool and allocates under 6 KiB
// (21.5 KB when every call rebuilt its design). Under -race sync.Pool
// drops items at random, so the bound does not hold there.
func TestDetectBatchSmallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items")
	}
	rng := rand.New(rand.NewSource(41))
	b := randomBatch(rng, 1, servingN, 0.3)
	opt := DefaultOptions(servingHistory)
	call := func() {
		if _, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	call()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 6<<10 {
		t.Fatalf("a warm 1-pixel call allocates %d bytes, want < %d", per, 6<<10)
	}
}

// BenchmarkDetectBatchSmall times the 1- and 4-pixel calls of a serving
// request at its shape, where the design tables come from the pool.
func BenchmarkDetectBatchSmall(b *testing.B) {
	for _, m := range []int{1, 4} {
		b.Run(fmt.Sprintf("px=%d", m), func(b *testing.B) {
			bb := randomBatch(rand.New(rand.NewSource(42)), m, servingN, 0.3)
			opt := DefaultOptions(servingHistory)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DetectBatch(context.Background(), bb, opt, BatchConfig{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzDetectBatchShapes runs DetectBatch over a random sequence of
// shapes — date count, history, harmonics, frequency, trend, 1–9 pixels
// with random NaN masks — and requires every call to equal scalar
// Detect, whichever shape's tables the pool held before it.
func FuzzDetectBatchShapes(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 8, 1, 9, 16})
	f.Add(int64(2), []byte{40, 3, 5, 40, 3, 5, 41, 3, 5, 40, 11, 6})
	f.Add(int64(3), []byte{63, 255, 71, 7, 0, 2, 63, 255, 71})
	frequencies := []float64{23, 12, 36.5, 7}
	f.Fuzz(func(t *testing.T, seed int64, shapes []byte) {
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s+3 <= len(shapes) && s < 3*12; s += 3 {
			a, b, c := shapes[s], shapes[s+1], shapes[s+2]
			n := 24 + int(a%64)
			opt := DefaultOptions(min(max(n/2+int(b%8)-4, 1), n-1))
			opt.Harmonics = int(b>>3) % 4
			opt.Frequency = frequencies[c%4]
			opt.NoTrend = c&4 != 0
			m := 1 + int(c>>3)%9
			nanFrac := rng.Float64() * 0.7
			y := make([]float64, m*n)
			for i := range y {
				if rng.Float64() < nanFrac {
					y[i] = math.NaN()
				} else {
					y[i] = rng.NormFloat64()
				}
			}
			batch, err := NewBatch(m, n, y)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DetectBatch(context.Background(), batch, opt, BatchConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, scalarOracle(t, batch, opt), got,
				fmt.Sprintf("call %d: n=%d history=%d k=%d f=%v noTrend=%v", s/3, n, opt.History, opt.Harmonics, opt.Frequency, opt.NoTrend))
		}
	})
}
