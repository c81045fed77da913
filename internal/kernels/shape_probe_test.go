package kernels

import (
	"testing"

	"bfast/internal/core"
	"bfast/internal/flops"
	"bfast/internal/gpusim"
	"bfast/internal/workload"
)

// TestShapeProbe prints the modeled Fig. 6/7/8 numbers for D1 so the cost
// model can be sanity-checked against the paper's reported ranges. Run
// with -v; assertions live in the dedicated figure tests.
func TestShapeProbe(t *testing.T) {
	spec, _ := workload.Preset("D1")
	spec.M = 2048 // sampled
	ds, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromFloat64(spec.M, spec.N, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	scale := 16384.0 / float64(spec.M)
	fz := flops.Sizes{M: 16384, N: spec.N, History: spec.History, K: 8, HFrac: 0.25}

	x, _ := MakeDesign32(spec.N, 3, 23)
	for _, v := range []MatMulVariant{MMRegisterTiled, MMBlockTiled, MMNaive} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		_, run, err := BatchNormalMatrices(dev, v, x, b, spec.History, scale)
		if err != nil {
			t.Fatal(err)
		}
		total := dev.TotalTime()
		t.Logf("Fig6 %-16s %12v (total %v)  %8.1f GFlops^Sp", v, run.Time, total, flopsOver(fz.MaskedMatMul(), total.Seconds()))
	}

	normal := make([]float32, spec.M*8*8)
	mmUntiledExec(x, b, spec.History, normal)
	for _, v := range []InvVariant{InvShared, InvGlobal} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		_, run, err := BatchInvert(dev, v, normal, 8, scale)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Fig7 %-16s %12v  %8.1f GFlops^Sp", v, run.Time, run.GFlopsSp(fz.MatInv()))
	}

	opt := core.DefaultOptions(spec.History)
	for _, s := range []Strategy{StrategyOurs, StrategyRgTlEfSeq, StrategyFullEfSeq} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		res, err := SimulateApp(dev, b, opt, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		scaled := res.KernelTime
		_ = scaled
		t.Logf("Fig8 %-16s kernels %12v  %8.1f GFlops^Sp", s, res.KernelTime,
			flopsOver(fz.App()/scale, res.KernelTime.Seconds()))
		for _, r := range res.Runs {
			t.Logf("      %-28s %12v", r.Name, r.Time)
		}
	}
}

func flopsOver(fl, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return fl / sec / 1e9
}
