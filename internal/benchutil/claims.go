package benchutil

import (
	"context"

	"fmt"
	"time"

	"bfast/internal/core"
	"bfast/internal/flops"
	"bfast/internal/gpusim"
	"bfast/internal/kernels"
	"bfast/internal/workload"
)

// Claim is one checkable assertion from the paper's evaluation.
type Claim struct {
	// ID names the claim ("fig6.register-wins", …).
	ID string
	// Text quotes or paraphrases the paper.
	Text string
	// Observed summarizes what the reproduction measured.
	Observed string
	// Holds reports whether the claim reproduced.
	Holds bool
}

// Claims runs the reproduction scorecard: every qualitative claim of the
// paper's evaluation is checked programmatically against the simulated/
// measured system and reported PASS/FAIL. This is the one-shot answer to
// "did the reproduction work?" — EXPERIMENTS.md narrates the details.
func Claims(ctx context.Context, cfg Config) ([]Claim, error) {
	cfg = cfg.withDefaults()
	var out []Claim
	add := func(id, text, observed string, holds bool) {
		out = append(out, Claim{ID: id, Text: text, Observed: observed, Holds: holds})
	}

	// --- Dataset regime (Table I) -------------------------------------
	spec, err := workload.Preset("D1")
	if err != nil {
		return nil, err
	}
	sampled, scale := sampledSpec(spec, cfg)
	ds, err := workload.Generate(sampled)
	if err != nil {
		return nil, err
	}
	add("table1.nan", "generator hits the Table I NaN frequency",
		fmt.Sprintf("target %.0f%%, realized %.1f%%", 100*spec.NaNFrac, 100*ds.NaNFraction()),
		abs(ds.NaNFraction()-spec.NaNFrac) < 0.03)

	b32, err := kernels.FromFloat64(sampled.M, sampled.N, ds.Y)
	if err != nil {
		return nil, err
	}
	x32, err := kernels.MakeDesign32(sampled.N, 3, 23)
	if err != nil {
		return nil, err
	}

	// --- Fig. 6 ---------------------------------------------------------
	times := map[kernels.MatMulVariant]time.Duration{}
	for _, v := range []kernels.MatMulVariant{kernels.MMRegisterTiled, kernels.MMBlockTiled, kernels.MMNaive} {
		dev := gpusim.NewDevice(cfg.Profile)
		_, run, err := kernels.BatchNormalMatrices(dev, v, x32, b32, sampled.History, scale)
		if err != nil {
			return nil, err
		}
		times[v] = run.Time
	}
	rBlock := times[kernels.MMBlockTiled].Seconds() / times[kernels.MMRegisterTiled].Seconds()
	rNaive := times[kernels.MMNaive].Seconds() / times[kernels.MMRegisterTiled].Seconds()
	add("fig6.register-wins", "register tiling outperforms block tiling and naive by 2-3x",
		fmt.Sprintf("%.1fx over block, %.1fx over naive", rBlock, rNaive),
		rBlock >= 1.5 && rBlock <= 6 && rNaive >= rBlock)
	add("fig6.block-vs-naive", "block tiling offers limited gains over unoptimized",
		fmt.Sprintf("block/naive time ratio %.2f", times[kernels.MMBlockTiled].Seconds()/times[kernels.MMNaive].Seconds()),
		times[kernels.MMBlockTiled] <= times[kernels.MMNaive])

	// D6 anomaly: register tiling markedly slower per spec-flop on D6.
	gf := func(name string) (float64, error) {
		sp, err := workload.Preset(name)
		if err != nil {
			return 0, err
		}
		ss, sc := sampledSpec(sp, cfg)
		d, err := workload.Generate(ss)
		if err != nil {
			return 0, err
		}
		bb, err := kernels.FromFloat64(ss.M, ss.N, d.Y)
		if err != nil {
			return 0, err
		}
		xx, err := kernels.MakeDesign32(ss.N, 3, 23)
		if err != nil {
			return 0, err
		}
		dev := gpusim.NewDevice(cfg.Profile)
		_, run, err := kernels.BatchNormalMatrices(dev, kernels.MMRegisterTiled, xx, bb, ss.History, sc)
		if err != nil {
			return 0, err
		}
		fz := flops.Sizes{M: sp.M, N: sp.N, History: sp.History, K: 8, HFrac: 0.25}
		return run.GFlopsSp(fz.MaskedMatMul()), nil
	}
	g1, err := gf("D1")
	if err != nil {
		return nil, err
	}
	g6, err := gf("D6")
	if err != nil {
		return nil, err
	}
	add("fig6.d6-anomaly", "D6 is slower: the whole-Y transposition weighs more at n = N/4",
		fmt.Sprintf("D1 %.0f vs D6 %.0f GFlops^Sp", g1, g6), g6 < 0.8*g1)

	// --- Fig. 7 ---------------------------------------------------------
	devTmp := gpusim.NewDevice(cfg.Profile)
	normal, _, err := kernels.BatchNormalMatrices(devTmp, kernels.MMNaive, x32, b32, sampled.History, 1)
	if err != nil {
		return nil, err
	}
	dev := gpusim.NewDevice(cfg.Profile)
	_, shared, err := kernels.BatchInvert(dev, kernels.InvShared, normal, 8, scale)
	if err != nil {
		return nil, err
	}
	_, global, err := kernels.BatchInvert(dev, kernels.InvGlobal, normal, 8, scale)
	if err != nil {
		return nil, err
	}
	invRatio := global.Time.Seconds() / shared.Time.Seconds()
	add("fig7.shared-mem", "shared-memory inversion is 5-6x faster than the global version",
		fmt.Sprintf("%.1fx", invRatio), invRatio >= 3 && invRatio <= 10)

	// --- Fig. 8 ---------------------------------------------------------
	opt := core.DefaultOptions(sampled.History)
	strat := map[kernels.Strategy]time.Duration{}
	var monitorShare float64
	for _, s := range []kernels.Strategy{kernels.StrategyOurs, kernels.StrategyRgTlEfSeq, kernels.StrategyFullEfSeq} {
		devS := gpusim.NewDevice(cfg.Profile)
		res, err := kernels.SimulateApp(devS, b32, opt, s, 0)
		if err != nil {
			return nil, err
		}
		// Rescale each run to the full Table I pixel count so fixed launch
		// overheads do not distort the sampled shares.
		var total, mon time.Duration
		for _, r := range res.Runs {
			rt := cfg.Profile.Rescale(r, scale).Time
			total += rt
			// The paper's claim covers ker 7-10 (filter, σ̂, MOSUM) —
			// kernels 1-6 are the matrix-operation-like ones.
			switch r.Name {
			case "ker7/filter", "ker8/sigma", "ker9/mosum-init", "ker10/mosum-scan":
				mon += rt
			}
		}
		strat[s] = total
		if s == kernels.StrategyOurs {
			monitorShare = mon.Seconds() / total.Seconds()
		}
	}
	r1 := strat[kernels.StrategyRgTlEfSeq].Seconds() / strat[kernels.StrategyOurs].Seconds()
	r2 := strat[kernels.StrategyFullEfSeq].Seconds() / strat[kernels.StrategyRgTlEfSeq].Seconds()
	add("fig8.inner-parallelism", "using inner parallelism in fast memory gives 2-3x (Ours vs RgTl-EfSeq)",
		fmt.Sprintf("%.1fx", r1), r1 >= 1.5 && r1 <= 4)
	add("fig8.tiling", "tiling the matmul-like kernels gives 1.5-2x at application level",
		fmt.Sprintf("%.1fx", r2), r2 >= 1.2 && r2 <= 3)
	add("fig8.non-matrix-share", "about half of the execution time is spent in kernels 7-10 (non-matrix ops)",
		fmt.Sprintf("%.0f%% of Ours' kernel time", 100*monitorShare),
		monitorShare > 0.3 && monitorShare < 0.7)

	// --- Correctness claim (§V) ----------------------------------------
	cb, err := core.NewBatch(sampled.M, sampled.N, ds.Y)
	if err != nil {
		return nil, err
	}
	ref, err := core.DetectBatch(ctx, cb, opt, core.BatchConfig{})
	if err != nil {
		return nil, err
	}
	devC := gpusim.NewDevice(cfg.Profile)
	sim, err := kernels.SimulateApp(devC, b32, opt, kernels.StrategyOurs, 0)
	if err != nil {
		return nil, err
	}
	agree := 0
	for i := range ref {
		if ref[i].BreakIndex == sim.Breaks[i] {
			agree++
		}
	}
	add("correctness.machine-precision", "the parallel implementation yields the same results as the reference (up to machine precision)",
		fmt.Sprintf("%d/%d pixels agree between float32 kernels and float64 reference", agree, len(ref)),
		agree >= len(ref)*95/100)

	// --- Print the scorecard --------------------------------------------
	fmt.Fprintf(cfg.Out, "REPRODUCTION SCORECARD — paper claims checked programmatically\n")
	pass := 0
	for _, c := range out {
		status := "FAIL"
		if c.Holds {
			status = "PASS"
			pass++
		}
		fmt.Fprintf(cfg.Out, "[%s] %-28s %s\n        observed: %s\n", status, c.ID, c.Text, c.Observed)
	}
	fmt.Fprintf(cfg.Out, "%d/%d claims reproduced\n", pass, len(out))
	return out, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
