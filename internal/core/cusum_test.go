package core

import (
	"context"

	"math/rand"
	"testing"

	"bfast/internal/series"
	"bfast/internal/stats"
)

func cusumOpts(history int) Options {
	o := defaultTestOpts(history)
	o.Process = stats.ProcessCUSUM
	return o
}

func TestCUSUMFalsePositiveRateCalibrated(t *testing.T) {
	N, n := 460, 230
	x, _ := series.MakeDesign(N, 3, 23)
	fp := 0
	trials := 400
	opt := cusumOpts(n)
	for s := 0; s < trials; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		y := synthSeries(rng, N, 3, 23, 0.02, -1, 0, 0.3)
		res, err := Detect(y, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.HasBreak() {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	t.Logf("CUSUM false-positive rate: %.3f (nominal 0.05)", rate)
	if rate > 0.10 {
		t.Fatalf("CUSUM false-positive rate %.3f far above nominal 0.05", rate)
	}
}

func TestCUSUMDetectsPersistentShift(t *testing.T) {
	N, n := 460, 230
	x, _ := series.MakeDesign(N, 3, 23)
	opt := cusumOpts(n)
	hits := 0
	trials := 100
	for s := 0; s < trials; s++ {
		rng := rand.New(rand.NewSource(int64(500 + s)))
		y := synthSeries(rng, N, 3, 23, 0.02, 280, -0.4, 0.3)
		res, err := Detect(y, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.HasBreak() {
			hits++
			if res.MosumMean >= 0 {
				t.Fatalf("negative shift must give negative process mean, got %v", res.MosumMean)
			}
		}
	}
	if hits < trials*9/10 {
		t.Fatalf("CUSUM detected only %d/%d strong persistent shifts", hits, trials)
	}
}

func TestCUSUMResolveLambdaUsesOwnTable(t *testing.T) {
	mo := defaultTestOpts(100)
	cu := cusumOpts(100)
	lm, err := mo.ResolveLambda()
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cu.ResolveLambda()
	if err != nil {
		t.Fatal(err)
	}
	if lm == lc {
		t.Fatal("CUSUM must resolve its own critical value")
	}
	want, _ := stats.CriticalValueCUSUM(0.05)
	if lc != want {
		t.Fatalf("CUSUM λ = %v, want %v", lc, want)
	}
}

func TestCUSUMBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	b := randomBatch(rng, 48, 256, 0.5)
	opt := cusumOpts(128)
	want := scalarOracle(t, b, opt)
	got, err := DetectBatch(context.Background(), b, opt, BatchConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, want, got, 0, "cusum")
}

func TestCUSUMSlowerThanMosumOnAbruptBreaks(t *testing.T) {
	// MOSUM's finite window forgets pre-break residuals; CUSUM dilutes the
	// shift over the whole monitoring period. On abrupt large breaks the
	// MOSUM detection should not lag CUSUM on average.
	N, n := 460, 230
	x, _ := series.MakeDesign(N, 3, 23)
	moOpt := defaultTestOpts(n)
	cuOpt := cusumOpts(n)
	var moLag, cuLag, both float64
	for s := 0; s < 60; s++ {
		rng := rand.New(rand.NewSource(int64(900 + s)))
		breakAt := 300
		y := synthSeries(rng, N, 3, 23, 0.02, breakAt, -0.6, 0.3)
		mo, err := Detect(y, x, moOpt)
		if err != nil {
			t.Fatal(err)
		}
		cu, err := Detect(y, x, cuOpt)
		if err != nil {
			t.Fatal(err)
		}
		if mo.HasBreak() && cu.HasBreak() {
			moLag += float64(mo.BreakIndex + n - breakAt)
			cuLag += float64(cu.BreakIndex + n - breakAt)
			both++
		}
	}
	if both < 30 {
		t.Fatalf("too few joint detections (%v)", both)
	}
	t.Logf("mean detection lag: MOSUM %.1f dates, CUSUM %.1f dates (%v joint detections)",
		moLag/both, cuLag/both, both)
	if moLag/both > cuLag/both+10 {
		t.Fatalf("MOSUM lag (%.1f) should not exceed CUSUM lag (%.1f) by much",
			moLag/both, cuLag/both)
	}
}

func TestProcessKindString(t *testing.T) {
	if stats.ProcessMOSUM.String() != "mosum" || stats.ProcessCUSUM.String() != "cusum" {
		t.Fatal("ProcessKind.String broken")
	}
	if stats.ProcessKind(9).String() == "" {
		t.Fatal("unknown process must render")
	}
}

func TestCUSUMBoundaryShape(t *testing.T) {
	lam := 2.0
	b0 := stats.BoundaryFor(stats.ProcessCUSUM, stats.BoundaryPaper, lam, 0, 100)
	b100 := stats.BoundaryFor(stats.ProcessCUSUM, stats.BoundaryPaper, lam, 100, 100)
	if b0 != lam {
		t.Fatalf("CUSUM boundary at t=0 should be λ, got %v", b0)
	}
	if b100 <= b0 {
		t.Fatal("CUSUM boundary must grow with t")
	}
	// MOSUM delegation unchanged.
	if stats.BoundaryFor(stats.ProcessMOSUM, stats.BoundaryPaper, lam, 5, 100) !=
		stats.Boundary(stats.BoundaryPaper, lam, 5, 100) {
		t.Fatal("MOSUM BoundaryFor must delegate to Boundary")
	}
}

func TestCriticalValueCUSUMTable(t *testing.T) {
	prev := 0.0
	for _, lv := range []float64{0.20, 0.10, 0.05, 0.01} {
		lam, err := stats.CriticalValueCUSUM(lv)
		if err != nil {
			t.Fatal(err)
		}
		if lam <= prev {
			t.Fatal("CUSUM λ must grow as level shrinks")
		}
		prev = lam
	}
	if _, err := stats.CriticalValueCUSUM(0.42); err == nil {
		t.Fatal("unsupported level must fail")
	}
}
