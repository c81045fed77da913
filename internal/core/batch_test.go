package core

import (
	"context"

	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bfast/internal/series"
)

// randomBatch builds an M×N batch with a mix of stable pixels, breaking
// pixels and degenerate pixels, at missing-value rate nanFrac.
func randomBatch(rng *rand.Rand, m, n int, nanFrac float64) *Batch {
	y := make([]float64, m*n)
	for i := 0; i < m; i++ {
		var row []float64
		switch i % 4 {
		case 0: // stable
			row = synthSeries(rng, n, 3, 23, 0.03, -1, 0, nanFrac)
		case 1: // break (negative)
			row = synthSeries(rng, n, 3, 23, 0.03, n/2+rng.Intn(n/4), -0.7, nanFrac)
		case 2: // break (positive)
			row = synthSeries(rng, n, 3, 23, 0.03, n/2+rng.Intn(n/4), +0.7, nanFrac)
		default: // heavy missing
			row = synthSeries(rng, n, 3, 23, 0.03, -1, 0, 0.9)
		}
		copy(y[i*n:(i+1)*n], row)
	}
	b, err := NewBatch(m, n, y)
	if err != nil {
		panic(err)
	}
	return b
}

func resultsEqual(t *testing.T, a, b []Result, tol float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Status != b[i].Status {
			t.Fatalf("%s: pixel %d status %v vs %v", label, i, a[i].Status, b[i].Status)
		}
		if a[i].BreakIndex != b[i].BreakIndex {
			t.Fatalf("%s: pixel %d break %d vs %d", label, i, a[i].BreakIndex, b[i].BreakIndex)
		}
		if a[i].ValidHistory != b[i].ValidHistory || a[i].Valid != b[i].Valid {
			t.Fatalf("%s: pixel %d valid counts differ", label, i)
		}
		d := a[i].MosumMean - b[i].MosumMean
		if math.Abs(d) > tol {
			t.Fatalf("%s: pixel %d MOSUM mean %v vs %v", label, i, a[i].MosumMean, b[i].MosumMean)
		}
	}
}

func TestNewBatchValidation(t *testing.T) {
	if _, err := NewBatch(2, 3, make([]float64, 5)); err == nil {
		t.Fatal("expected size mismatch error")
	}
	b, err := NewBatch(2, 3, make([]float64, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Row(1)) != 3 {
		t.Fatal("Row length wrong")
	}
}

// TestDetectBatchStrategiesAgreeWithReference checks DetectBatch against
// scalar Detect per pixel within 1e-9 on the MOSUM mean.
func TestDetectBatchStrategiesAgreeWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	M, N, n := 64, 256, 128
	b := randomBatch(rng, M, N, 0.5)
	opt := defaultTestOpts(n)
	x, _ := series.MakeDesign(N, opt.Harmonics, opt.Frequency)

	// Reference: scalar Detect per pixel.
	want := make([]Result, M)
	for i := 0; i < M; i++ {
		r, err := Detect(b.Row(i), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, want, got, 1e-9, "batch")
}

func TestDetectBatchWorkerCountsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	M, N, n := 40, 200, 100
	b := randomBatch(rng, M, N, 0.6)
	opt := defaultTestOpts(n)
	ref, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8, 64} {
		got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, ref, got, 0, "workers")
	}
}

func TestDetectBatchHighNaN(t *testing.T) {
	// 92% missing (the Africa regime): most pixels unfittable, none crash.
	rng := rand.New(rand.NewSource(62))
	M, N, n := 128, 327, 160
	y := make([]float64, M*N)
	for i := range y {
		if rng.Float64() < 0.92 {
			y[i] = math.NaN()
		} else {
			y[i] = rng.NormFloat64()
		}
	}
	b, _ := NewBatch(M, N, y)
	opt := defaultTestOpts(n)
	res, err := DetectBatch(context.Background(), b, opt, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var unfit int
	for _, r := range res {
		if r.Status == StatusInsufficientHistory {
			unfit++
		}
	}
	if unfit == 0 {
		t.Fatal("expected some unfittable pixels at 92% NaN")
	}
}

func TestDetectBatchEmptyBatch(t *testing.T) {
	b, _ := NewBatch(0, 100, nil)
	res, err := DetectBatch(context.Background(), b, defaultTestOpts(50), BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatal("empty batch must give empty results")
	}
}

func TestDetectBatchInvalidOptions(t *testing.T) {
	b, _ := NewBatch(1, 10, make([]float64, 10))
	opt := defaultTestOpts(20) // history beyond N
	if _, err := DetectBatch(context.Background(), b, opt, BatchConfig{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDetectBatchPropertyNaNPaddingTailInvariance(t *testing.T) {
	// Property: appending all-NaN dates to the *monitoring* tail must not
	// change the detection outcome (those dates are filtered out).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		N, n := 200, 100
		y := synthSeries(rng, N, 3, 23, 0.05, 140, -0.6, 0.3)
		x1, _ := series.MakeDesign(N, 3, 23)
		opt := defaultTestOpts(n)
		r1, err := Detect(y, x1, opt)
		if err != nil {
			return false
		}
		pad := 1 + rng.Intn(50)
		y2 := make([]float64, N+pad)
		copy(y2, y)
		for i := N; i < N+pad; i++ {
			y2[i] = math.NaN()
		}
		x2, _ := series.MakeDesign(N+pad, 3, 23)
		r2, err := Detect(y2, x2, opt)
		if err != nil {
			return false
		}
		return r1.Status == r2.Status && r1.BreakIndex == r2.BreakIndex &&
			math.Abs(r1.MosumMean-r2.MosumMean) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolverStrings(t *testing.T) {
	if SolverGaussJordan.String() != "gauss-jordan" ||
		SolverPivot.String() != "pivot" ||
		SolverCholesky.String() != "cholesky" {
		t.Fatal("Solver.String broken")
	}
}

func TestStatusStrings(t *testing.T) {
	for s := StatusOK; s <= StatusNoVariance; s++ {
		if s.String() == "" {
			t.Fatalf("status %d has empty string", int(s))
		}
	}
	if Status(42).String() == "" {
		t.Fatal("unknown status must render")
	}
}

func BenchmarkDetectSinglePixel(b *testing.B) {
	rng := rand.New(rand.NewSource(70))
	N, n := 512, 256
	y := synthSeries(rng, N, 3, 23, 0.05, 400, -0.5, 0.5)
	x, _ := series.MakeDesign(N, 3, 23)
	opt := defaultTestOpts(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(y, x, opt); err != nil {
			b.Fatal(err)
		}
	}
}
