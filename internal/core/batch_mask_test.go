package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bfast/internal/series"
)

// assertBitIdentical compares two result sets with exact float equality
// — the contract between DetectBatch and scalar Detect.
func assertBitIdentical(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Status != g.Status || w.BreakIndex != g.BreakIndex ||
			w.ValidHistory != g.ValidHistory || w.Valid != g.Valid {
			t.Fatalf("%s pixel %d: %+v vs %+v", label, i, w, g)
		}
		if w.Sigma != g.Sigma && !(math.IsNaN(w.Sigma) && math.IsNaN(g.Sigma)) {
			t.Fatalf("%s pixel %d: σ̂ %v vs %v", label, i, w.Sigma, g.Sigma)
		}
		if w.MosumMean != g.MosumMean && !(math.IsNaN(w.MosumMean) && math.IsNaN(g.MosumMean)) {
			t.Fatalf("%s pixel %d: mean %v vs %v", label, i, w.MosumMean, g.MosumMean)
		}
		if len(w.Beta) != len(g.Beta) {
			t.Fatalf("%s pixel %d: β length %d vs %d", label, i, len(w.Beta), len(g.Beta))
		}
		for j := range w.Beta {
			if w.Beta[j] != g.Beta[j] {
				t.Fatalf("%s pixel %d: β[%d] %v vs %v", label, i, j, w.Beta[j], g.Beta[j])
			}
		}
	}
}

// scalarOracle runs scalar Detect on every pixel of the batch — the
// oracle every batched result is pinned to.
func scalarOracle(t *testing.T, b *Batch, opt Options) []Result {
	t.Helper()
	x, err := DesignFor(opt, b.N)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, b.M)
	for i := range want {
		if want[i], err = Detect(b.Row(i), x, opt); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// edgeBatch holds the bitset edge cases: an all-NaN pixel, an all-valid
// pixel (fast-path words), a pixel whose only NaNs sit in the tail word,
// and a heavily missing one, with N not a multiple of 64.
func edgeBatch(rng *rand.Rand) *Batch {
	const M, N = 4, 230 // N % 64 = 38: tail word in play
	y := make([]float64, M*N)
	for t := 0; t < N; t++ {
		y[t] = math.NaN()
	}
	copy(y[1*N:2*N], synthSeries(rng, N, 3, 23, 0.03, 180, -0.6, 0))
	copy(y[2*N:3*N], synthSeries(rng, N, 3, 23, 0.03, -1, 0, 0))
	for t := N - 10; t < N; t++ {
		y[2*N+t] = math.NaN()
	}
	copy(y[3*N:4*N], synthSeries(rng, N, 3, 23, 0.03, -1, 0, 0.85))
	b, err := NewBatch(M, N, y)
	if err != nil {
		panic(err)
	}
	return b
}

// TestDetectBatchBitIdenticalToSeedReference pins the bitset/work-stealing
// path bit for bit to scalar Detect, the reference every batched result
// answers to, on randomized high-NaN batches, for every solver.
func TestDetectBatchBitIdenticalToSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, nanFrac := range []float64{0.5, 0.8} {
		M, N, n := 48, 300, 150
		b := randomBatch(rng, M, N, nanFrac)
		for _, solver := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
			opt := defaultTestOpts(n)
			opt.Solver = solver
			want := scalarOracle(t, b, opt)
			got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, fmt.Sprintf("nan=%v/%v", nanFrac, solver))
		}
	}
}

// TestDetectBatchMaskEdgePixels checks that edgeBatch holds the cases it
// names, on the oracle and on DetectBatch: the all-NaN pixel is
// unfittable and the all-valid pixel fits with every date counted.
func TestDetectBatchMaskEdgePixels(t *testing.T) {
	b := edgeBatch(rand.New(rand.NewSource(91)))
	opt := defaultTestOpts(115)
	want := scalarOracle(t, b, opt)
	if want[0].Status != StatusInsufficientHistory {
		t.Fatal("all-NaN pixel must be unfittable")
	}
	if want[1].Status != StatusOK || want[1].Valid != b.N {
		t.Fatal("all-valid pixel must fit with full count")
	}
	got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, got, "edge")
}

// TestDetectBatchMatchesScalarDetect pins DetectBatch to scalar Detect
// bit for bit across solvers, missing-value rates, pixel counts (a lone
// short tile, M = 8k + r and M = 8k) and worker counts, plus the bitset
// edge cases.
func TestDetectBatchMatchesScalarDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	const N, n = 300, 150
	batches := []struct {
		name string
		b    *Batch
		n    int
	}{
		{"nan=0", randomBatch(rng, 70, N, 0), n}, // 70 = 8·8 + 6
		{"nan=50", randomBatch(rng, 70, N, 0.5), n},
		{"nan=80", randomBatch(rng, 70, N, 0.8), n},
		{"M<8", randomBatch(rng, 5, N, 0.5), n},
		{"edge", edgeBatch(rng), 115},
		{"M=8k", randomBatch(rng, 64, N, 0.5), n},
	}
	for _, bc := range batches {
		for _, solver := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
			opt := defaultTestOpts(bc.n)
			opt.Solver = solver
			want := scalarOracle(t, bc.b, opt)
			for _, workers := range []int{1, 3} {
				got, err := DetectBatch(context.Background(), bc.b, opt, BatchConfig{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, want, got, fmt.Sprintf("%s/%v/workers=%d", bc.name, solver, workers))
			}
		}
	}
}

// TestDetectBatchWorkersExceedPixels: worker counts far beyond M must
// not spawn zero-width goroutines or change results.
func TestDetectBatchWorkersExceedPixels(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	b := randomBatch(rng, 3, 200, 0.5)
	opt := defaultTestOpts(100)
	want, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfgW := range []int{64, 1000} {
		got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: cfgW})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, "many-workers")
	}
}

// TestBatchMaskMatchesRows: Batch.MaskCtx must agree with per-row masks
// for any worker count.
func TestBatchMaskMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	b := randomBatch(rng, 20, 130, 0.6)
	for _, w := range []int{0, 1, 7} {
		bm, err := b.MaskCtx(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, series.MaskWords(b.N))
		for i := 0; i < b.M; i++ {
			series.FillMask(b.Row(i), want)
			row := bm.Row(i)
			for wi := range row {
				if row[wi] != want[wi] {
					t.Fatalf("workers=%d pixel %d word %d differs", w, i, wi)
				}
			}
		}
	}
}
