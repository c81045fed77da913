package core

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"bfast/internal/series"
)

func TestNoTrendK(t *testing.T) {
	opt := DefaultOptions(50)
	if opt.K() != 8 {
		t.Fatalf("default K = %d, want 8", opt.K())
	}
	opt.NoTrend = true
	if opt.K() != 7 {
		t.Fatalf("trend-less K = %d, want 7", opt.K())
	}
}

func TestDesignForShapes(t *testing.T) {
	opt := DefaultOptions(50)
	x, err := DesignFor(opt, 100)
	if err != nil {
		t.Fatal(err)
	}
	if x.K != 8 {
		t.Fatalf("design K = %d, want 8", x.K)
	}
	opt.NoTrend = true
	x, err = DesignFor(opt, 100)
	if err != nil {
		t.Fatal(err)
	}
	if x.K != 7 {
		t.Fatalf("trend-less design K = %d, want 7", x.K)
	}
	// Row 1 must now be the first harmonic, not the trend.
	if x.At(1, 10) == 11 {
		t.Fatal("trend row still present in trend-less design")
	}
}

func TestDetectNoTrendModel(t *testing.T) {
	// A purely seasonal series (no trend) with a shift: the trend-less
	// model must detect it just like the full model.
	N, n := 300, 150
	y := make([]float64, N)
	for t0 := 0; t0 < N; t0++ {
		y[t0] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(t0+1)/23) +
			1e-3*math.Sin(float64(t0)*13)
		if t0 >= 220 {
			y[t0] -= 0.6
		}
	}
	opt := defaultTestOpts(n)
	opt.NoTrend = true
	x, err := DesignFor(opt, N)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(y, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasBreak() {
		t.Fatalf("trend-less model missed the break: %+v", res)
	}
	if len(res.Beta) != 7 {
		t.Fatalf("β has %d coefficients, want 7", len(res.Beta))
	}
}

func TestDetectNoTrendBatchAgrees(t *testing.T) {
	// DetectBatch and scalar Detect agree for trend-less models.
	N, n := 200, 100
	b := randomBatch(rand.New(rand.NewSource(80)), 32, N, 0.4)
	opt := defaultTestOpts(n)
	opt.NoTrend = true
	want := scalarOracle(t, b, opt)
	got, err := DetectBatch(context.Background(), b, opt, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, want, got, 1e-9, "notrend")
}

func TestMakeDesignAtIrregular(t *testing.T) {
	// Irregular acquisition times in decimal years with f = 1 (annual
	// cycle): the harmonic at a given time must match the closed form.
	times := []float64{2000.0, 2000.13, 2000.4, 2001.07, 2003.9}
	x, err := series.MakeDesignAt(times, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if x.K != 6 || x.N != 5 {
		t.Fatalf("shape %dx%d", x.K, x.N)
	}
	for i, tt := range times {
		if x.At(0, i) != 1 || x.At(1, i) != tt {
			t.Fatal("intercept/trend wrong")
		}
		if math.Abs(x.At(2, i)-math.Sin(2*math.Pi*tt)) > 1e-12 {
			t.Fatal("first harmonic wrong")
		}
		if math.Abs(x.At(5, i)-math.Cos(4*math.Pi*tt)) > 1e-12 {
			t.Fatal("second cos harmonic wrong")
		}
	}
	if _, err := series.MakeDesignAt(nil, 2, 1, true); err == nil {
		t.Fatal("empty times must fail")
	}
}
