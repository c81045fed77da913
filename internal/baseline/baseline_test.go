package baseline

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bfast/internal/core"
	"bfast/internal/obs"
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

// TestCLikeLeavesKernelPixelsAlone: the comparator must not inflate the
// production kernel.pixels counter of a process that also runs the
// detector.
func TestCLikeLeavesKernelPixelsAlone(t *testing.T) {
	b := genBatch(t, 50, 128, 64, 0.3, 0.2, 36)
	pixels := obs.Default().Counter("kernel.pixels")
	before := pixels.Value()
	if _, err := CLike(context.Background(), b, core.DefaultOptions(64), 2); err != nil {
		t.Fatal(err)
	}
	if got := pixels.Value(); got != before {
		t.Fatalf("kernel.pixels moved from %d to %d across CLike", before, got)
	}
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

	// Degenerate pixels, where the three solvers part ways: every host
	// path must reach the same verdict as scalar Detect under each of
	// them, with the same bits in every float.
	d := degenerateBatch(t)
	for _, solver := range []core.Solver{core.SolverGaussJordan, core.SolverPivot, core.SolverCholesky} {
		opt := core.DefaultOptions(degHist)
		opt.Solver = solver
		want := referenceResults(t, d, opt)
		cl, err := CLike(context.Background(), d, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := RLike(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		db, err := core.DetectBatch(context.Background(), d, opt, core.BatchConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, want, cl, "degenerate/clike/"+solver.String())
		assertSameBits(t, want, rl, "degenerate/rlike/"+solver.String())
		assertSameBits(t, want, db, "degenerate/detect-batch/"+solver.String())
	}
}

const degN, degHist = 200, 100

// degenerateBatch builds pixels whose history fit is degenerate, each
// pattern repeated with different values so that its pixels share one
// history mask (and, under Gauss-Jordan, one class inverse):
//
//   - history valid only on three seasonal phases: on those dates the
//     K = 8 regressors span at most four dimensions (intercept and
//     harmonics are functions of the phase, plus the trend), so the
//     normal matrix is singular in exact arithmetic;
//   - history valid on twelve consecutive dates of one season: the
//     harmonic columns are nearly collinear;
//   - exactly K valid history dates, the effective MinValidHistory:
//     the fit interpolates and σ̂ has no degrees of freedom left.
//
// Every monitoring date is valid.
func degenerateBatch(t *testing.T) *core.Batch {
	t.Helper()
	const f = 23
	validHist := []func(int) bool{
		func(d int) bool { p := d % f; return p == 0 || p == 7 || p == 15 },
		func(d int) bool { return d >= 46 && d < 58 },
		func(d int) bool { return d%12 == 3 && d < 3+12*8 },
	}
	const reps = 4
	m := len(validHist) * reps
	y := make([]float64, m*degN)
	for i := 0; i < m; i++ {
		valid := validHist[i/reps]
		amp := 0.2 + 0.05*float64(i%reps)
		for d := 0; d < degN; d++ {
			v := math.NaN()
			if d >= degHist || valid(d) {
				v = 0.5 + amp*math.Sin(2*math.Pi*float64(d)/f) + 0.01*math.Cos(float64(7*d+i))
			}
			y[i*degN+d] = v
		}
	}
	b, err := core.NewBatch(m, degN, y)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertSameBits is assertIdentical with every float compared by its
// bits, so NaN, ±0 and ±Inf must match exactly.
func assertSameBits(t *testing.T, want, got []core.Result, label string) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch", label)
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Status != g.Status || w.BreakIndex != g.BreakIndex ||
			w.ValidHistory != g.ValidHistory || w.Valid != g.Valid ||
			!same(w.MosumMean, g.MosumMean) || !same(w.Sigma, g.Sigma) || len(w.Beta) != len(g.Beta) {
			t.Fatalf("%s pixel %d: %+v vs %+v", label, i, w, g)
		}
		for j := range w.Beta {
			if !same(w.Beta[j], g.Beta[j]) {
				t.Fatalf("%s pixel %d: β[%d] %v vs %v", label, i, j, w.Beta[j], g.Beta[j])
			}
		}
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
