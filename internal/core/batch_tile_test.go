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

// acrossKScene builds an m×N scene for TestDetectBatchAcrossK: ragged
// i.i.d. masks or a few shared cloud masks, pixel 0 all-NaN, ±Inf and −0
// observations in the history and the monitoring period of pixels 1 and
// 2, and the dates in empty missing in every pixel.
func acrossKScene(rng *rand.Rand, clouds bool, m, N int, empty []int) *Batch {
	var b *Batch
	if clouds {
		b = maskedScene(rng, m, N, randomMasks(rng, 3, N, 0.5), func(i int) int { return i % 3 })
	} else {
		b = randomBatch(rng, m, N, 0.4)
	}
	for t := 0; t < N; t++ {
		b.Y[t] = math.NaN()
	}
	negZero := math.Copysign(0, -1)
	for _, s := range []struct {
		px, t int
		v     float64
	}{{1, 5, math.Inf(1)}, {1, N - 7, math.Inf(-1)}, {2, 9, negZero}, {2, 11, negZero}, {2, N - 3, negZero}} {
		b.Y[s.px*N+s.t] = s.v
	}
	for i := 0; i < m; i++ {
		for _, t := range empty {
			b.Y[i*N+t] = math.NaN()
		}
	}
	return b
}

// TestDetectBatchAcrossK holds the three callers of the tiled loop —
// DetectBatch, DetectPopulated and FitMonitors — to scalar Detect bit for
// bit at K = 1, 2, 7, 8, 9, 16 and 22 (Harmonics × NoTrend): one
// regressor, partial and whole blocks of eight, up to three blocks. The
// scenes mix ragged i.i.d. and cloud masks with an all-NaN lane and ±Inf
// and −0 values, end in a short last tile of 1 or 5 pixels, and run on
// one and on four workers.
func TestDetectBatchAcrossK(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	const N, n = 160, 80
	empty := []int{3, 50, 51, 120, N - 1}
	ctx := context.Background()
	for _, kc := range []struct {
		harmonics int
		noTrend   bool
	}{{0, true}, {0, false}, {3, true}, {3, false}, {4, true}, {7, false}, {10, false}} {
		opt := defaultTestOpts(n)
		opt.Harmonics, opt.NoTrend = kc.harmonics, kc.noTrend
		x, err := DesignFor(opt, N)
		if err != nil {
			t.Fatal(err)
		}
		lambda, err := opt.ResolveLambda()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{17, 21} {
			for _, clouds := range []bool{false, true} {
				b := acrossKScene(rng, clouds, m, N, empty)
				want := scalarResults(t, b, opt)
				var kept []int
				for d := 0; d < N; d++ {
					for i := 0; i < m; i++ {
						if !math.IsNaN(b.Y[i*N+d]) {
							kept = append(kept, d)
							break
						}
					}
				}
				compact := &Batch{M: m, N: len(kept), Y: make([]float64, m*len(kept))}
				for i := 0; i < m; i++ {
					for j, d := range kept {
						compact.Y[i*len(kept)+j] = b.Y[i*N+d]
					}
				}
				wantPop := scalarResults(t, compact, opt)
				hist := &Batch{M: m, N: n, Y: make([]float64, m*n)}
				for i := 0; i < m; i++ {
					copy(hist.Row(i), b.Row(i)[:n])
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("K=%d M=%d clouds=%v w%d", opt.K(), m, clouds, workers)
					cfg := BatchConfig{Workers: workers}
					got, err := DetectBatch(ctx, b, opt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					assertSameBits(t, want, got, label+" DetectBatch")
					gotPop, gotKept, err := DetectPopulated(ctx, b, opt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(gotKept) != fmt.Sprint(kept) {
						t.Fatalf("%s: DetectPopulated kept %v, want %v", label, gotKept, kept)
					}
					assertSameBits(t, wantPop, gotPop, label+" DetectPopulated")
					recs, status, err := FitMonitors(ctx, hist, x, opt, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < m; i++ {
						w, rec := want[i], &recs[i]
						if status[i] != StatusOK {
							if status[i] != w.Status {
								t.Fatalf("%s pixel %d: fit status %v, Detect %v", label, i, status[i], w.Status)
							}
							continue
						}
						for d := n; d < N; d++ {
							rec.Push(x, d, b.Y[i*N+d], opt, lambda)
						}
						fit := Result{Status: w.Status, BreakIndex: rec.Break, ValidHistory: rec.NBar, Valid: w.Valid,
							Beta: rec.Beta, Sigma: rec.Sigma, MosumMean: rec.Mean()}
						assertSameBits(t, []Result{w}, []Result{fit}, fmt.Sprintf("%s FitMonitors pixel %d", label, i))
					}
				}
			}
		}
	}
}
