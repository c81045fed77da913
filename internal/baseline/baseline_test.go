package baseline

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bfast/internal/core"
	"bfast/internal/series"
	"bfast/internal/workload"
)

func genBatch(t *testing.T, m, n, hist int, nanFrac, breakFrac float64, seed int64) *core.Batch {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "t", M: m, N: n, History: hist, NaNFrac: nanFrac,
		BreakFrac: breakFrac, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBatch(m, n, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func referenceResults(t *testing.T, b *core.Batch, opt core.Options) []core.Result {
	t.Helper()
	x, err := series.MakeDesign(b.N, opt.Harmonics, opt.Frequency)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.Result, b.M)
	for i := 0; i < b.M; i++ {
		r, err := core.Detect(b.Row(i), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func assertIdentical(t *testing.T, want, got []core.Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch", label)
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Status != g.Status || w.BreakIndex != g.BreakIndex ||
			w.ValidHistory != g.ValidHistory || w.Valid != g.Valid {
			t.Fatalf("%s pixel %d: %+v vs %+v", label, i, w, g)
		}
		if w.MosumMean != g.MosumMean && !(math.IsNaN(w.MosumMean) && math.IsNaN(g.MosumMean)) {
			t.Fatalf("%s pixel %d: MOSUM mean %v vs %v (must be bit-identical)",
				label, i, w.MosumMean, g.MosumMean)
		}
		if w.Sigma != g.Sigma {
			t.Fatalf("%s pixel %d: σ̂ %v vs %v", label, i, w.Sigma, g.Sigma)
		}
		for j := range w.Beta {
			if w.Beta[j] != g.Beta[j] {
				t.Fatalf("%s pixel %d: β[%d] %v vs %v", label, i, j, w.Beta[j], g.Beta[j])
			}
		}
	}
}

func TestCLikeBitIdenticalToReference(t *testing.T) {
	b := genBatch(t, 120, 256, 128, 0.55, 0.4, 31)
	opt := core.DefaultOptions(128)
	want := referenceResults(t, b, opt)
	got, err := CLike(context.Background(), b, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got, "clike")
}

func TestCLikeSolversBitIdentical(t *testing.T) {
	b := genBatch(t, 40, 200, 100, 0.5, 0.3, 32)
	for _, solver := range []core.Solver{core.SolverGaussJordan, core.SolverPivot, core.SolverCholesky} {
		opt := core.DefaultOptions(100)
		opt.Solver = solver
		want := referenceResults(t, b, opt)
		got, err := CLike(context.Background(), b, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, want, got, "clike/"+solver.String())
	}
}

func TestCLikeWorkerInvariance(t *testing.T) {
	b := genBatch(t, 64, 128, 64, 0.6, 0.5, 33)
	opt := core.DefaultOptions(64)
	r1, err := CLike(context.Background(), b, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 32} {
		rw, err := CLike(context.Background(), b, opt, w)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, r1, rw, "workers")
	}
}

func TestCLikeDegeneratePixels(t *testing.T) {
	// All-NaN, constant and sparse pixels must map to the same statuses as
	// the reference.
	const M, N, n = 6, 64, 32
	y := make([]float64, M*N)
	for i := range y {
		y[i] = math.NaN()
	}
	// Pixel 1: constant (no variance with k=0 impossible here; with k=3 it
	// is singular or no-variance).
	for t := 0; t < N; t++ {
		y[1*N+t] = 5
	}
	// Pixel 2: valid history, all-NaN monitoring.
	for t := 0; t < n; t++ {
		y[2*N+t] = math.Sin(float64(t)) + 0.1*float64(t%5)
	}
	// Pixel 3: only 3 valid points.
	y[3*N+1], y[3*N+5], y[3*N+40] = 1, 2, 3
	b, _ := core.NewBatch(M, N, y)
	opt := core.DefaultOptions(n)
	want := referenceResults(t, b, opt)
	got, err := CLike(context.Background(), b, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got, "degenerate")
}

func TestCLikeEmptyBatch(t *testing.T) {
	b, err := core.NewBatch(0, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CLike(context.Background(), b, core.DefaultOptions(32), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatal("empty batch must give empty results")
	}
}

func TestCLikeWorkersExceedPixels(t *testing.T) {
	b := genBatch(t, 2, 128, 64, 0.5, 0.5, 42)
	opt := core.DefaultOptions(64)
	want := referenceResults(t, b, opt)
	for _, w := range []int{1, 3, 100} {
		got, err := CLike(context.Background(), b, opt, w)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, want, got, fmt.Sprintf("clike/%d-workers", w))
	}
}

func TestCLikeInvalidOptions(t *testing.T) {
	b := genBatch(t, 2, 32, 16, 0.1, 0, 34)
	opt := core.DefaultOptions(32) // no monitoring period
	if _, err := CLike(context.Background(), b, opt, 1); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRLikeBitIdenticalToReference(t *testing.T) {
	b := genBatch(t, 80, 200, 100, 0.6, 0.4, 35)
	opt := core.DefaultOptions(100)
	want := referenceResults(t, b, opt)
	got, err := RLike(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got, "rlike")
}

func TestRLikeSolverVariants(t *testing.T) {
	b := genBatch(t, 24, 160, 80, 0.5, 0.3, 36)
	for _, solver := range []core.Solver{core.SolverGaussJordan, core.SolverPivot, core.SolverCholesky} {
		opt := core.DefaultOptions(80)
		opt.Solver = solver
		want := referenceResults(t, b, opt)
		got, err := RLike(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, want, got, "rlike/"+solver.String())
	}
}

func TestRLikeInvalidOptions(t *testing.T) {
	b := genBatch(t, 2, 32, 16, 0.1, 0, 37)
	opt := core.DefaultOptions(0)
	if _, err := RLike(b, opt); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestCLikeAgreesWithRLike(t *testing.T) {
	b := genBatch(t, 60, 180, 90, 0.7, 0.5, 38)
	opt := core.DefaultOptions(90)
	rl, err := RLike(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := CLike(context.Background(), b, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, rl, cl, "rlike-vs-clike")
}

func BenchmarkCLikeD2Sample(b *testing.B) {
	ds, err := workload.Generate(workload.Spec{
		Name: "bench", M: 1024, N: 512, History: 256, NaNFrac: 0.5, Seed: 39,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch, _ := core.NewBatch(1024, 512, ds.Y)
	opt := core.DefaultOptions(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CLike(context.Background(), batch, opt, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRLikeD2Sample(b *testing.B) {
	ds, err := workload.Generate(workload.Spec{
		Name: "bench", M: 256, N: 512, History: 256, NaNFrac: 0.5, Seed: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch, _ := core.NewBatch(256, 512, ds.Y)
	opt := core.DefaultOptions(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RLike(batch, opt); err != nil {
			b.Fatal(err)
		}
	}
}
