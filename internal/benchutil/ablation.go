package benchutil

import (
	"context"

	"fmt"
	"time"

	"bfast/internal/baseline"
	"bfast/internal/core"
	"bfast/internal/flops"
	"bfast/internal/gpusim"
	"bfast/internal/kernels"
	"bfast/internal/workload"
)

// AblationRow is one setting of a design-choice sweep.
type AblationRow struct {
	Sweep    string
	Setting  string
	Time     time.Duration
	GFlopsSp float64
}

// Ablations sweeps the design choices DESIGN.md calls out, on D2 geometry:
//
//   - tile-R: the register-tile size of the masked matmul (paper: R = 30;
//     R = 1 degenerates to a block-per-pixel kernel with no amortization);
//   - harmonics-K: the model order k (the paper notes larger k values
//     give *higher* GFlops^Sp because tiling amortizes better);
//   - nan-frac: the missing-value frequency (D1-D6 rationale: performance
//     should be largely insensitive to f^NaN since the padded kernels do
//     the same work regardless);
//   - sample-accuracy: sampled-counter extrapolation vs full execution
//     (validates the SampleM mechanism the harness relies on).
func Ablations(ctx context.Context, cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var rows []AblationRow

	base, err := workload.Preset("D2")
	if err != nil {
		return nil, err
	}
	sampled, scale := sampledSpec(base, cfg)
	ds, err := workload.Generate(sampled)
	if err != nil {
		return nil, err
	}
	b32, err := kernels.FromFloat64(sampled.M, sampled.N, ds.Y)
	if err != nil {
		return nil, err
	}
	x, err := kernels.MakeDesign32(sampled.N, 3, 23)
	if err != nil {
		return nil, err
	}
	fz := flops.Sizes{M: base.M, N: base.N, History: base.History, K: 8, HFrac: 0.25}

	// --- tile-R sweep ----------------------------------------------------
	fmt.Fprintf(cfg.Out, "ABLATION tile-R — register-tile size of the masked matmul (paper default R=30)\n")
	fmt.Fprintf(cfg.Out, "%-10s %14s %14s\n", "R", "modeled time", "GFlops^Sp")
	for _, r := range []int{1, 4, 8, 16, 30, 64} {
		dev := gpusim.NewDevice(cfg.Profile)
		_, run, err := kernels.BatchNormalMatricesR(dev, x, b32, sampled.History, r, scale)
		if err != nil {
			return nil, err
		}
		row := AblationRow{Sweep: "tile-R", Setting: fmt.Sprintf("R=%d", r),
			Time: run.Time, GFlopsSp: run.GFlopsSp(fz.MaskedMatMul())}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-10s %14s %14.0f\n", row.Setting, shortDur(row.Time), row.GFlopsSp)
	}

	// --- harmonics sweep ---------------------------------------------------
	fmt.Fprintf(cfg.Out, "\nABLATION harmonics-K — model order (paper: larger k amortizes tiling better)\n")
	fmt.Fprintf(cfg.Out, "%-10s %6s %14s %14s\n", "k", "K", "app time", "GFlops^Sp")
	for _, k := range []int{1, 2, 3, 5, 8} {
		opt := core.DefaultOptions(sampled.History)
		opt.Harmonics = k
		dev := gpusim.NewDevice(cfg.Profile)
		res, err := kernels.SimulateApp(dev, b32, opt, kernels.StrategyOurs, 0)
		if err != nil {
			return nil, err
		}
		fk := flops.Sizes{M: sampled.M, N: sampled.N, History: sampled.History, K: opt.K(), HFrac: 0.25}
		row := AblationRow{Sweep: "harmonics-K", Setting: fmt.Sprintf("k=%d", k),
			Time: res.KernelTime, GFlopsSp: fk.App() / res.KernelTime.Seconds() / 1e9}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-10s %6d %14s %14.0f\n", row.Setting, opt.K(), shortDur(row.Time), row.GFlopsSp)
	}

	// --- NaN-fraction sweep --------------------------------------------------
	fmt.Fprintf(cfg.Out, "\nABLATION nan-frac — missing-value frequency (padded kernels should be insensitive)\n")
	fmt.Fprintf(cfg.Out, "%-10s %14s %14s\n", "f^NaN", "app time", "GFlops^Sp")
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		spec := sampled
		spec.NaNFrac = f
		dsf, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		bf, err := kernels.FromFloat64(spec.M, spec.N, dsf.Y)
		if err != nil {
			return nil, err
		}
		opt := core.DefaultOptions(spec.History)
		dev := gpusim.NewDevice(cfg.Profile)
		res, err := kernels.SimulateApp(dev, bf, opt, kernels.StrategyOurs, 0)
		if err != nil {
			return nil, err
		}
		fk := flops.Sizes{M: spec.M, N: spec.N, History: spec.History, K: 8, HFrac: 0.25}
		row := AblationRow{Sweep: "nan-frac", Setting: fmt.Sprintf("f=%.0f%%", 100*f),
			Time: res.KernelTime, GFlopsSp: fk.App() / res.KernelTime.Seconds() / 1e9}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-10s %14s %14.0f\n", row.Setting, shortDur(row.Time), row.GFlopsSp)
	}

	// --- solver sweep (measured on the host CPU path) ---------------------
	fmt.Fprintf(cfg.Out, "\nABLATION solver — model-fitting method, measured on the parallel CPU path\n")
	fmt.Fprintf(cfg.Out, "%-14s %14s %10s\n", "solver", "time", "breaks")
	cbS, err := core.NewBatch(sampled.M, sampled.N, ds.Y)
	if err != nil {
		return nil, err
	}
	var refBreaks int
	for _, solver := range []core.Solver{core.SolverGaussJordan, core.SolverPivot, core.SolverCholesky} {
		optS := core.DefaultOptions(sampled.History)
		optS.Solver = solver
		start := time.Now()
		results, err := baseline.CLike(ctx, cbS, optS, cfg.Workers)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		breaks := 0
		for _, r := range results {
			if r.HasBreak() {
				breaks++
			}
		}
		if solver == core.SolverGaussJordan {
			refBreaks = breaks
		} else if breaks != refBreaks {
			return nil, fmt.Errorf("benchutil: solver %v found %d breaks, gauss-jordan %d", solver, breaks, refBreaks)
		}
		rows = append(rows, AblationRow{Sweep: "solver", Setting: solver.String(), Time: elapsed})
		fmt.Fprintf(cfg.Out, "%-14s %14s %10d\n", solver, shortDur(elapsed), breaks)
	}

	// --- sampling-accuracy check ----------------------------------------------
	fmt.Fprintf(cfg.Out, "\nABLATION sample-accuracy — sampled-counter extrapolation vs full execution\n")
	opt := core.DefaultOptions(sampled.History)
	devFull := gpusim.NewDevice(cfg.Profile)
	full, err := kernels.SimulateApp(devFull, b32, opt, kernels.StrategyOurs, 0)
	if err != nil {
		return nil, err
	}
	for _, frac := range []int{2, 4, 8} {
		devS := gpusim.NewDevice(cfg.Profile)
		res, err := kernels.SimulateApp(devS, b32, opt, kernels.StrategyOurs, sampled.M/frac)
		if err != nil {
			return nil, err
		}
		relErr := (res.KernelTime.Seconds() - full.KernelTime.Seconds()) / full.KernelTime.Seconds()
		row := AblationRow{Sweep: "sample-accuracy", Setting: fmt.Sprintf("1/%d", frac),
			Time: res.KernelTime, GFlopsSp: 100 * relErr}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "sample 1/%d: %s vs full %s (%.2f%% deviation)\n",
			frac, shortDur(res.KernelTime), shortDur(full.KernelTime), 100*relErr)
	}
	return rows, nil
}
