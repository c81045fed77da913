package kernels

import (
	"context"

	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bfast/internal/core"
	"bfast/internal/gpusim"
	"bfast/internal/stats"
	"bfast/internal/workload"
)

// TestMatMulVariantsAgreeProperty: for random shapes, NaN rates and seeds,
// all three kernel variants produce bit-identical normal matrices.
func TestMatMulVariantsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(120)
		n := 20 + rng.Intn(120)
		hist := 10 + rng.Intn(n-10)
		k := 1 + rng.Intn(4)
		ds, err := workload.Generate(workload.Spec{
			Name: "p", M: m, N: n, History: hist,
			NaNFrac: rng.Float64() * 0.9, Seed: seed + 1,
		})
		if err != nil {
			return false
		}
		b, err := FromFloat64(m, n, ds.Y)
		if err != nil {
			return false
		}
		x, err := MakeDesign32(n, k, 23)
		if err != nil {
			return false
		}
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		ref, _, err := BatchNormalMatrices(dev, MMNaive, x, b, hist, 1)
		if err != nil {
			return false
		}
		for _, v := range []MatMulVariant{MMRegisterTiled, MMBlockTiled} {
			got, _, err := BatchNormalMatrices(dev, v, x, b, hist, 1)
			if err != nil {
				return false
			}
			for i := range ref {
				if got[i] != ref[i] && !(isNaN32(got[i]) && isNaN32(ref[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTileRVariantsAgree: every register-tile size computes identical
// results (only the schedule changes).
func TestTileRVariantsAgree(t *testing.T) {
	b, _ := testBatch(t, 77, 96, 48, 0.5, 0, 41)
	x, _ := MakeDesign32(96, 3, 23)
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	ref, _, err := BatchNormalMatricesR(dev, x, b, 48, RegisterTileR, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 7, 64, 200} {
		got, _, err := BatchNormalMatricesR(dev, x, b, 48, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("R=%d differs at %d", r, i)
			}
		}
	}
	if _, _, err := BatchNormalMatricesR(dev, x, b, 48, 0, 1); err == nil {
		t.Fatal("R=0 must fail")
	}
	if _, _, err := BatchNormalMatricesR(dev, x, b, 0, 8, 1); err == nil {
		t.Fatal("history=0 must fail")
	}
}

// TestTileRTrafficMonotone: larger R amortizes A/B loads, so the modeled
// time must not increase with R.
func TestTileRTrafficMonotone(t *testing.T) {
	b, _ := testBatch(t, 512, 256, 128, 0.5, 0, 42)
	x, _ := MakeDesign32(256, 3, 23)
	prev := math.Inf(1)
	for _, r := range []int{1, 4, 16, 30} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		_, run, err := BatchNormalMatricesR(dev, x, b, 128, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s := run.Time.Seconds(); s > prev*1.02 {
			t.Fatalf("modeled time grew from R=%d: %v", r, run.Time)
		} else {
			prev = s
		}
	}
}

// TestSimulateAppNoTrend: the simulated float32 pipeline supports
// trend-less models and agrees with the float64 reference.
func TestSimulateAppNoTrend(t *testing.T) {
	const M, N, n = 48, 160, 80
	b, ds := testBatch(t, M, N, n, 0.4, 0.4, 43)
	opt := core.DefaultOptions(n)
	opt.NoTrend = true
	cb, _ := core.NewBatch(M, N, ds.Y)
	want, err := core.DetectBatch(context.Background(), cb, opt, core.BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	got, err := SimulateApp(dev, b, opt, StrategyOurs, 0)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range want {
		if want[i].BreakIndex == got.Breaks[i] {
			agree++
		}
	}
	if agree < M*9/10 {
		t.Fatalf("trend-less f32 pipeline agrees on only %d/%d pixels", agree, M)
	}
}

// TestSimulateAppCUSUM: the f32 pipeline's CUSUM process matches the
// reference.
func TestSimulateAppCUSUM(t *testing.T) {
	const M, N, n = 48, 200, 100
	b, ds := testBatch(t, M, N, n, 0.4, 0.5, 44)
	opt := core.DefaultOptions(n)
	opt.Process = stats.ProcessCUSUM
	cb, _ := core.NewBatch(M, N, ds.Y)
	want, err := core.DetectBatch(context.Background(), cb, opt, core.BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	got, err := SimulateApp(dev, b, opt, StrategyOurs, 0)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range want {
		if want[i].BreakIndex == got.Breaks[i] {
			agree++
		}
	}
	if agree < M*9/10 {
		t.Fatalf("CUSUM f32 pipeline agrees on only %d/%d pixels", agree, M)
	}
}
