package benchutil

import (
	"context"

	"fmt"
	"path/filepath"
	"time"

	"bfast/internal/baseline"
	"bfast/internal/core"
	"bfast/internal/cube"
	"bfast/internal/flops"
	"bfast/internal/gpusim"
	"bfast/internal/kernels"
	"bfast/internal/workload"
)

// MapsResult summarizes the qualitative change-map experiment
// (Figs. 3/9/11 analogue) against the generator's ground truth.
type MapsResult struct {
	Scenario       string
	Breaks         int
	NegativeBreaks int
	TruePositives  int
	FalsePositives int
	MissedBreaks   int
	Precision      float64
	Recall         float64
	TimingMapPath  string
	MagnitudePath  string
}

// Maps runs detection over the Peru (Small)-like scene, renders the
// break-timing and magnitude maps, and scores detections against the
// injected ground truth. With MapsDir empty the maps are not written.
func Maps(ctx context.Context, cfg Config) (*MapsResult, error) {
	cfg = cfg.withDefaults()
	spec, err := workload.Preset("PeruSmallScene")
	if err != nil {
		return nil, err
	}
	spec, _ = sampledSpecCap(spec, cfg.SampleM*16)
	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions(spec.History)
	results, err := baseline.CLike(ctx, b, opt, cfg.Workers)
	if err != nil {
		return nil, err
	}
	height := spec.M / spec.Width
	m := cube.NewBreakMap(spec.Width, height, spec.N-spec.History)
	res := &MapsResult{Scenario: spec.Name}
	for i, r := range results {
		m.Break[i] = r.BreakIndex
		if r.Status == core.StatusOK {
			m.Magnitude[i] = r.MosumMean
		}
		detected := r.HasBreak() && r.MosumMean < 0
		truth := ds.TrueBreak[i] >= 0
		switch {
		case detected && truth:
			res.TruePositives++
		case detected && !truth:
			res.FalsePositives++
		case !detected && truth:
			res.MissedBreaks++
		}
	}
	res.Breaks, res.NegativeBreaks = m.CountBreaks()
	if res.TruePositives+res.FalsePositives > 0 {
		res.Precision = float64(res.TruePositives) / float64(res.TruePositives+res.FalsePositives)
	}
	if res.TruePositives+res.MissedBreaks > 0 {
		res.Recall = float64(res.TruePositives) / float64(res.TruePositives+res.MissedBreaks)
	}
	if cfg.MapsDir != "" {
		res.TimingMapPath = filepath.Join(cfg.MapsDir, "peru_small_timing.ppm")
		res.MagnitudePath = filepath.Join(cfg.MapsDir, "peru_small_magnitude.pgm")
		if err := m.WriteTimingPPMFile(res.TimingMapPath); err != nil {
			return nil, err
		}
		if err := m.WriteMagnitudePGMFile(res.MagnitudePath, 0.25); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(cfg.Out, "MAPS — Peru(Small)-like scene, detected changes vs injected ground truth (Figs. 3/9 analogue)\n")
	fmt.Fprintf(cfg.Out, "pixels %d  breaks %d (negative %d)  precision %.2f  recall %.2f\n",
		spec.M, res.Breaks, res.NegativeBreaks, res.Precision, res.Recall)
	if res.TimingMapPath != "" {
		fmt.Fprintf(cfg.Out, "maps written: %s, %s\n", res.TimingMapPath, res.MagnitudePath)
	}
	return res, nil
}

// SpeedupsResult is the §V-B / §II-B speed-up reproduction.
type SpeedupsResult struct {
	Dataset          string
	GPUModeled       time.Duration // modeled, full dataset
	CPUParallel      time.Duration // measured on sample, scaled to full M
	CPUSingle        time.Duration // measured on sample, scaled to full M
	RLike            time.Duration // measured on sample, scaled to full M
	GPUvsCPUParallel float64
	GPUvsRLike       float64
	ParallelSpeedup  float64
}

// Speedups reproduces the paper's headline ratios on D2: the modeled GPU
// against the measured parallel CPU implementation (paper: 24-48x), the
// measured single-thread speed-up of parallelism (paper: ~21x on 32
// hyperthreads), and the R-style implementation (paper: >5000x vs GPU —
// of which only the algorithmic/allocation part reproduces here; the R
// interpreter's constant factor is documented, not simulated).
func Speedups(ctx context.Context, cfg Config) (*SpeedupsResult, error) {
	cfg = cfg.withDefaults()
	spec, err := workload.Preset("D2")
	if err != nil {
		return nil, err
	}
	sampled, scale := sampledSpec(spec, cfg)
	ds, err := workload.Generate(sampled)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions(spec.History)

	b32, err := kernels.FromFloat64(sampled.M, sampled.N, ds.Y)
	if err != nil {
		return nil, err
	}
	dev := gpusim.NewDevice(cfg.Profile)
	app, err := kernels.SimulateApp(dev, b32, opt, kernels.StrategyOurs, 0)
	if err != nil {
		return nil, err
	}
	var gpuTime time.Duration
	for _, r := range app.Runs {
		gpuTime += cfg.Profile.Rescale(r, scale).Time
	}
	res := &SpeedupsResult{
		Dataset:    spec.Name,
		GPUModeled: gpuTime,
	}

	cb, err := core.NewBatch(sampled.M, sampled.N, ds.Y)
	if err != nil {
		return nil, err
	}
	measure := func(f func() error) (time.Duration, error) {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		return time.Duration(float64(time.Since(start)) * scale), nil
	}
	if res.CPUParallel, err = measure(func() error {
		_, e := baseline.CLike(ctx, cb, opt, cfg.Workers)
		return e
	}); err != nil {
		return nil, err
	}
	if res.CPUSingle, err = measure(func() error {
		_, e := baseline.CLike(ctx, cb, opt, 1)
		return e
	}); err != nil {
		return nil, err
	}
	if res.RLike, err = measure(func() error {
		_, e := baseline.RLike(cb, opt)
		return e
	}); err != nil {
		return nil, err
	}
	res.GPUvsCPUParallel = res.CPUParallel.Seconds() / res.GPUModeled.Seconds()
	res.GPUvsRLike = res.RLike.Seconds() / res.GPUModeled.Seconds()
	res.ParallelSpeedup = res.CPUSingle.Seconds() / res.CPUParallel.Seconds()

	fmt.Fprintf(cfg.Out, "SPEEDUPS — D2, extrapolated to full M=%d (paper §IV-C / §V-B)\n", spec.M)
	fmt.Fprintf(cfg.Out, "GPU (modeled, Ours):        %12s\n", shortDur(res.GPUModeled))
	fmt.Fprintf(cfg.Out, "CPU parallel (measured):    %12s   GPU speed-up %6.1fx (paper: 24-48x)\n",
		shortDur(res.CPUParallel), res.GPUvsCPUParallel)
	fmt.Fprintf(cfg.Out, "CPU 1-thread (measured):    %12s   parallel speed-up %5.1fx (paper: ~21x on 32 threads)\n",
		shortDur(res.CPUSingle), res.ParallelSpeedup)
	fmt.Fprintf(cfg.Out, "R-style (measured):         %12s   GPU speed-up %6.1fx (paper: >5000x incl. R interpreter)\n",
		shortDur(res.RLike), res.GPUvsRLike)
	return res, nil
}

// SweepRow is one monitoring period of the §V-C experiment.
type SweepRow struct {
	Label          string
	History        int
	Dates          int
	Breaks         int
	NegativeBreaks int
	MeanMagnitude  float64
}

// Sweep reproduces §V-C: consecutive one-year monitoring periods
// (2010-2011, 2011-2012, …) over the Peru(Small)-like scene. The scene's
// 16-day cadence makes a year 23 dates; the injected deforestation events
// all occur after the base history, so later periods accumulate more
// detected (negative) breaks.
func Sweep(ctx context.Context, cfg Config) ([]SweepRow, error) {
	cfg = cfg.withDefaults()
	spec, err := workload.Preset("PeruSmallScene")
	if err != nil {
		return nil, err
	}
	spec, _ = sampledSpecCap(spec, cfg.SampleM*16)
	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	const yearDates = 23
	baseHistory := spec.History
	years := (spec.N - baseHistory) / yearDates
	fmt.Fprintf(cfg.Out, "SWEEP — §V-C: one-year monitoring periods over Peru(Small)-like scene\n")
	fmt.Fprintf(cfg.Out, "%-12s %8s %8s %10s %10s %12s\n", "period", "history", "dates", "breaks", "negative", "mean magn.")
	var rows []SweepRow
	for y := 0; y < years; y++ {
		history := baseHistory + y*yearDates
		dates := history + yearDates
		if dates > spec.N {
			break
		}
		// Slice every pixel's series to the period's date range.
		sub := make([]float64, spec.M*dates)
		for i := 0; i < spec.M; i++ {
			copy(sub[i*dates:(i+1)*dates], ds.Y[i*spec.N:i*spec.N+dates])
		}
		b, err := core.NewBatch(spec.M, dates, sub)
		if err != nil {
			return nil, err
		}
		opt := core.DefaultOptions(history)
		results, err := baseline.CLike(ctx, b, opt, cfg.Workers)
		if err != nil {
			return nil, err
		}
		row := SweepRow{Label: fmt.Sprintf("2010+%d", y), History: history, Dates: dates}
		var magSum float64
		var magCount int
		for _, r := range results {
			if r.Status != core.StatusOK {
				continue
			}
			magSum += r.MosumMean
			magCount++
			if r.HasBreak() {
				row.Breaks++
				if r.MosumMean < 0 {
					row.NegativeBreaks++
				}
			}
		}
		if magCount > 0 {
			row.MeanMagnitude = magSum / float64(magCount)
		}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-12s %8d %8d %10d %10d %12.4f\n",
			row.Label, row.History, row.Dates, row.Breaks, row.NegativeBreaks, row.MeanMagnitude)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("benchutil: no monitoring periods fit the scene")
	}
	return rows, nil
}

// GFlopsSpOf is a small helper for external callers: spec flops of the
// whole application for a Table I dataset name.
func GFlopsSpOf(name string) (float64, error) {
	spec, err := workload.Preset(name)
	if err != nil {
		return 0, err
	}
	fz := flops.Sizes{M: spec.M, N: spec.N, History: spec.History, K: 8, HFrac: 0.25}
	return fz.App(), nil
}
