package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bfast/internal/series"
	"bfast/internal/stats"
)

// synthSeries builds a season+trend series of length N with optional noise,
// a level shift of size shift starting at date breakAt (absolute index,
// -1 for none), and missing values at rate nanFrac.
func synthSeries(rng *rand.Rand, n int, k int, f float64, noise float64, breakAt int, shift float64, nanFrac float64) []float64 {
	y := make([]float64, n)
	amp := []float64{0.3, 0.15, 0.05}
	for t := 0; t < n; t++ {
		tt := float64(t + 1)
		v := 0.5 + 0.0002*tt
		for j := 1; j <= k && j <= len(amp); j++ {
			v += amp[j-1] * math.Sin(2*math.Pi*float64(j)*tt/f+0.3*float64(j))
		}
		if noise > 0 {
			v += rng.NormFloat64() * noise
		}
		if breakAt >= 0 && t >= breakAt {
			v += shift
		}
		if rng.Float64() < nanFrac {
			v = math.NaN()
		}
		y[t] = v
	}
	return y
}

func defaultTestOpts(history int) Options {
	o := DefaultOptions(history)
	o.HFrac = 0.25
	o.Level = 0.05
	return o
}

func TestDetectNoBreakOnStableSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	N, n := 460, 230
	y := synthSeries(rng, N, 3, 23, 0.02, -1, 0, 0.3)
	x, _ := series.MakeDesign(N, 3, 23)
	res, err := Detect(y, x, defaultTestOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	if res.HasBreak() {
		t.Fatalf("false positive: break at %d on stable series", res.BreakIndex)
	}
}

func TestDetectFindsInjectedBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	N, n := 460, 230
	breakAt := 300
	y := synthSeries(rng, N, 3, 23, 0.02, breakAt, -0.6, 0.3)
	x, _ := series.MakeDesign(N, 3, 23)
	res, err := Detect(y, x, defaultTestOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasBreak() {
		t.Fatalf("missed injected break (status=%v, mean=%v)", res.Status, res.MosumMean)
	}
	// Break must be located at or after the true break, within a lag
	// bounded by the MOSUM window plus missing-value gaps.
	got := res.BreakIndex + n
	if got < breakAt {
		t.Fatalf("break detected at %d, before true break %d", got, breakAt)
	}
	if got > breakAt+120 {
		t.Fatalf("break detected at %d, too long after true break %d", got, breakAt)
	}
	if res.MosumMean >= 0 {
		t.Fatalf("negative shift must give negative MOSUM mean, got %v", res.MosumMean)
	}
}

func TestDetectPositiveShiftPositiveMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	N, n := 460, 230
	y := synthSeries(rng, N, 3, 23, 0.02, 300, +0.6, 0.2)
	x, _ := series.MakeDesign(N, 3, 23)
	res, err := Detect(y, x, defaultTestOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasBreak() || res.MosumMean <= 0 {
		t.Fatalf("expected positive-magnitude break, got %+v", res)
	}
}

func TestDetectInsufficientHistory(t *testing.T) {
	N, n := 100, 50
	y := make([]float64, N)
	for i := range y {
		y[i] = math.NaN()
	}
	// Leave only 3 valid history points (< K = 8).
	y[0], y[10], y[20] = 1, 2, 3
	y[60], y[70] = 1, 2
	x, _ := series.MakeDesign(N, 3, 23)
	res, err := Detect(y, x, defaultTestOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInsufficientHistory {
		t.Fatalf("status = %v, want insufficient-history", res.Status)
	}
	if res.HasBreak() {
		t.Fatal("unfittable pixel must not report a break")
	}
}

func TestDetectAllNaN(t *testing.T) {
	N, n := 64, 32
	y := make([]float64, N)
	for i := range y {
		y[i] = math.NaN()
	}
	x, _ := series.MakeDesign(N, 3, 23)
	res, err := Detect(y, x, defaultTestOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInsufficientHistory || res.Valid != 0 {
		t.Fatalf("got %+v", res)
	}
}

func TestDetectNoMonitoringData(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	N, n := 200, 100
	y := synthSeries(rng, N, 2, 23, 0.02, -1, 0, 0)
	for i := n; i < N; i++ {
		y[i] = math.NaN()
	}
	x, _ := series.MakeDesign(N, 2, 23)
	opt := defaultTestOpts(n)
	opt.Harmonics = 2
	res, err := Detect(y, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoMonitoringData {
		t.Fatalf("status = %v, want no-monitoring-data", res.Status)
	}
}

func TestDetectNoVarianceOnPerfectFit(t *testing.T) {
	// A series generated exactly from the model has ~zero residual
	// variance only if noise-free AND the regression is exact; constant
	// series with k=0 gives an exactly perfect fit.
	N, n := 100, 50
	y := make([]float64, N)
	for i := range y {
		y[i] = 5
	}
	x, _ := series.MakeDesign(N, 0, 23)
	opt := defaultTestOpts(n)
	opt.Harmonics = 0
	res, err := Detect(y, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoVariance {
		t.Fatalf("status = %v, want no-variance", res.Status)
	}
}

func TestDetectExactModelRecovery(t *testing.T) {
	// Noise-free series drawn from the model: β must be recovered and no
	// break detected. Use k=1 with distinct amplitudes.
	N, n := 200, 100
	k := 1
	f := 23.0
	x, _ := series.MakeDesign(N, k, f)
	trueBeta := []float64{0.4, 0.001, 0.25, -0.1}
	y := make([]float64, N)
	for t0 := 0; t0 < N; t0++ {
		var v float64
		for j := 0; j < len(trueBeta); j++ {
			v += x.At(j, t0) * trueBeta[j]
		}
		// Add a tiny bit of noise so σ̂ > 0.
		y[t0] = v + 1e-6*math.Sin(float64(t0)*7)
	}
	opt := defaultTestOpts(n)
	opt.Harmonics = k
	res, err := Detect(y, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	for j, b := range res.Beta {
		if math.Abs(b-trueBeta[j]) > 1e-3 {
			t.Fatalf("β[%d] = %v, want %v", j, b, trueBeta[j])
		}
	}
	if res.HasBreak() {
		t.Fatal("exact model must not break")
	}
}

func TestDetectValidateErrors(t *testing.T) {
	x, _ := series.MakeDesign(10, 3, 23)
	y := make([]float64, 10)
	cases := []Options{
		{History: 0, Harmonics: 3, Frequency: 23, HFrac: 0.25, Level: 0.05},
		{History: 10, Harmonics: 3, Frequency: 23, HFrac: 0.25, Level: 0.05},
		{History: 5, Harmonics: -1, Frequency: 23, HFrac: 0.25, Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: 0, HFrac: 0.25, Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: 23, HFrac: 0, Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: 23, HFrac: 1.5, Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: 23, HFrac: 0.25, Level: 0.42},
		{History: 5, Harmonics: 3, Frequency: 23, HFrac: 0.25, Level: 0.05, Lambda: -1},
		{History: 5, Harmonics: 3, Frequency: 23, HFrac: 0.25, Level: 0.05, Solver: Solver(9)},
		// Non-finite values slip past the ordered checks unless rejected
		// first: each of these passed Validate once, and NaN/±Inf
		// Frequency then made every pixel singular, NaN HFrac every pixel
		// no-variance.
		{History: 5, Harmonics: 3, Frequency: math.NaN(), HFrac: 0.25, Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: math.Inf(1), HFrac: 0.25, Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: math.Inf(-1), HFrac: 0.25, Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: 23, HFrac: math.NaN(), Level: 0.05},
		{History: 5, Harmonics: 3, Frequency: 23, HFrac: 0.25, Level: 0.05, Lambda: math.NaN()},
	}
	for i, opt := range cases {
		if err := opt.Validate(len(y)); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, opt)
		}
		if _, err := Detect(y, x, opt); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, opt)
		}
		b, _ := NewBatch(1, len(y), y)
		if _, err := DetectBatch(context.Background(), b, opt, BatchConfig{}); err == nil {
			t.Errorf("case %d: DetectBatch accepted %+v", i, opt)
		}
	}
}

func TestDetectLengthMismatch(t *testing.T) {
	x, _ := series.MakeDesign(10, 3, 23)
	if _, err := Detect(make([]float64, 12), x, defaultTestOpts(5)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestDetectSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	N, n := 300, 150
	x, _ := series.MakeDesign(N, 3, 23)
	for trial := 0; trial < 20; trial++ {
		y := synthSeries(rng, N, 3, 23, 0.05, 200, -0.5, 0.5)
		var results [3]Result
		for si, solver := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
			opt := defaultTestOpts(n)
			opt.Solver = solver
			res, err := Detect(y, x, opt)
			if err != nil {
				t.Fatal(err)
			}
			results[si] = res
		}
		for si := 1; si < 3; si++ {
			a, b := results[0], results[si]
			if a.Status != b.Status || a.BreakIndex != b.BreakIndex {
				t.Fatalf("trial %d: solver %d disagrees: %+v vs %+v", trial, si, a, b)
			}
			if a.Status == StatusOK && math.Abs(a.MosumMean-b.MosumMean) > 1e-6 {
				t.Fatalf("trial %d: MOSUM mean differs: %v vs %v", trial, a.MosumMean, b.MosumMean)
			}
		}
	}
}

func TestDetectBoundaryKindsBothRun(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	N, n := 300, 150
	x, _ := series.MakeDesign(N, 3, 23)
	y := synthSeries(rng, N, 3, 23, 0.02, 200, -0.8, 0.3)
	for _, bk := range []stats.BoundaryKind{stats.BoundaryPaper, stats.BoundaryStrucchange} {
		opt := defaultTestOpts(n)
		opt.Boundary = bk
		res, err := Detect(y, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasBreak() {
			t.Fatalf("boundary %v: missed strong break", bk)
		}
	}
}

func TestDetectSigmaKindsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	N, n := 300, 150
	x, _ := series.MakeDesign(N, 3, 23)
	y := synthSeries(rng, N, 3, 23, 0.05, -1, 0, 0.2)
	optA := defaultTestOpts(n)
	optB := defaultTestOpts(n)
	optB.Sigma = stats.SigmaSection2
	ra, err := Detect(y, x, optA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Detect(y, x, optB)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Sigma == rb.Sigma {
		t.Fatal("the two σ̂ estimators should differ on noisy data")
	}
}

func TestDetectExplicitLambdaOverridesLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	N, n := 300, 150
	x, _ := series.MakeDesign(N, 3, 23)
	y := synthSeries(rng, N, 3, 23, 0.05, 220, -0.3, 0.2)
	loose := defaultTestOpts(n)
	loose.Lambda = 0.05 // absurdly tight boundary -> break almost surely
	strict := defaultTestOpts(n)
	strict.Lambda = 100 // absurdly loose boundary -> never breaks
	rl, err := Detect(y, x, loose)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Detect(y, x, strict)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.HasBreak() {
		t.Fatal("λ=0.05 should flag a break")
	}
	if rs.HasBreak() {
		t.Fatal("λ=100 should never flag a break")
	}
}

func TestDetectBreakIndexWithinMonitoring(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	N, n := 256, 128
	x, _ := series.MakeDesign(N, 3, 23)
	for trial := 0; trial < 50; trial++ {
		y := synthSeries(rng, N, 3, 23, 0.1, 150+rng.Intn(60), -1+2*rng.Float64(), 0.5)
		res, err := Detect(y, x, defaultTestOpts(n))
		if err != nil {
			t.Fatal(err)
		}
		if res.HasBreak() {
			if res.BreakIndex < 0 || res.BreakIndex >= N-n {
				t.Fatalf("break index %d outside monitoring period [0,%d)", res.BreakIndex, N-n)
			}
			// The break must land on a valid (non-NaN) observation.
			if math.IsNaN(y[n+res.BreakIndex]) {
				t.Fatalf("break index %d maps to a missing observation", res.BreakIndex)
			}
		}
	}
}

func TestDetectDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	N, n := 300, 150
	x, _ := series.MakeDesign(N, 3, 23)
	y := synthSeries(rng, N, 3, 23, 0.05, 200, -0.5, 0.4)
	r1, _ := Detect(y, x, defaultTestOpts(n))
	r2, _ := Detect(y, x, defaultTestOpts(n))
	if r1.BreakIndex != r2.BreakIndex || r1.MosumMean != r2.MosumMean {
		t.Fatal("Detect must be deterministic")
	}
}
