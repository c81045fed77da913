package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDetectBatchTiledBitIdentical is the acceptance matrix of the tiled
// kernels: DetectBatch must be bit-identical to scalar Detect across NaN
// fractions and pixel counts: a lone short tile (M < 8), whole tiles
// (M = 8k) and a short last tile (M = 8k + r), whose padding lanes the
// kernels sweep with the real ones.
func TestDetectBatchTiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	const N, n = 300, 150
	for _, nanFrac := range []float64{0, 0.25, 0.5, 0.9} {
		for _, m := range []int{5, 21, 24, 13, 7, 70} {
			b := randomBatch(rng, m, N, nanFrac)
			opt := defaultTestOpts(n)
			want := scalarOracle(t, b, opt)
			got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, fmt.Sprintf("M=%d/nan=%v", m, nanFrac))
		}
	}
}

// TestDetectBatchTiledSolvers pins the non-GJ solver dispatch of the
// tiled drivers (per-lane extraction into Solver.Solve) to scalar Detect.
func TestDetectBatchTiledSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	const M, N, n = 21, 300, 150
	b := randomBatch(rng, M, N, 0.5)
	for _, solver := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
		opt := defaultTestOpts(n)
		opt.Solver = solver
		want := scalarOracle(t, b, opt)
		got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, solver.String())
	}
}

// TestDetectBatchTiledDegeneratePixels: tiles mixing all-NaN pixels,
// all-valid pixels, and below-rank pixels inside one tile — the binning
// puts the all-NaN pixels in the leading tile, so this exercises tiles
// with zero fitted lanes and tiles with mixed fit masks.
func TestDetectBatchTiledDegeneratePixels(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	const M, N, n = 11, 230, 115 // N % 64 != 0: tail mask word in play
	y := make([]float64, M*N)
	for i := 0; i < M; i++ {
		switch {
		case i < 3: // all NaN
			for t2 := 0; t2 < N; t2++ {
				y[i*N+t2] = math.NaN()
			}
		case i == 3: // below rank: only 4 valid history dates
			for t2 := 0; t2 < N; t2++ {
				y[i*N+t2] = math.NaN()
			}
			for _, t2 := range []int{3, 20, 50, 90} {
				y[i*N+t2] = rng.NormFloat64()
			}
		case i == 4: // all valid
			row := synthSeries(rng, N, 3, 23, 0.03, -1, 0, 0)
			copy(y[i*N:(i+1)*N], row)
		default:
			row := synthSeries(rng, N, 3, 23, 0.03, N/2, -0.7, 0.6)
			copy(y[i*N:(i+1)*N], row)
		}
	}
	b, err := NewBatch(M, N, y)
	if err != nil {
		t.Fatal(err)
	}
	opt := defaultTestOpts(n)
	want := scalarOracle(t, b, opt)
	got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, got, "degenerate")
}

// TestDetectBatchTiledWorkerInvariance: the tile decomposition must make
// results independent of worker count (each tile is a sealed unit of
// work — no cross-tile accumulation order exists to vary).
func TestDetectBatchTiledWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	b := randomBatch(rng, 19, 300, 0.5)
	opt := defaultTestOpts(150)
	base, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, base, got, "workers")
	}
}
