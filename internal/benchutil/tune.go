package benchutil

import (
	"context"

	"fmt"
	"time"

	"bfast/internal/autotune"
	"bfast/internal/core"
	"bfast/internal/workload"
)

// TuneRow is one verified configuration of the autotuner experiment: a
// strategy with its tuned (tile width, workers) geometry, measured
// against the PR-1 masked per-pixel path on the full sample, with
// bit-identical results checked.
type TuneRow struct {
	// Strategy names the batched strategy (see tiledStrategies).
	Strategy string
	// TileWidth and Workers are the autotuner's choice for this strategy.
	TileWidth int
	Workers   int
	// M, N, History, NaNFrac describe the verification workload.
	M, N, History int
	NaNFrac       float64
	// Masked and Tiled are best-of-reps wall times of the masked path
	// and the tuned tiled path.
	Masked, Tiled time.Duration
	// Speedup is Masked/Tiled.
	Speedup float64
	// Identical reports whether the two paths returned bit-identical
	// results on this run.
	Identical bool
	// Chosen marks the configuration the autotuner would return overall.
	Chosen bool
}

// TuneReport is the tune experiment's structured output: the raw sweep
// (every candidate the autotuner measured), the skew-gauge seed that
// ordered it, and the per-strategy verification rows.
type TuneReport struct {
	Seed  autotune.Seed        `json:"seed"`
	Sweep []autotune.Candidate `json:"sweep"`
	Rows  []TuneRow            `json:"rows"`
}

// Tune runs the startup autotuner on the 50%-NaN cloud-masked scene
// shape (a fresh sweep — the cache is bypassed so the report always
// reflects this host now) and then verifies each strategy's chosen
// geometry at full sample size against the masked path: the measured
// step change the sweep claims, with bit-identity checked.
func Tune(ctx context.Context, cfg Config) (*TuneReport, error) {
	cfg = cfg.withDefaults()
	spec := workload.Spec{
		Name: "skew50", M: cfg.SampleM, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 7,
	}
	spec, _ = sampledSpec(spec, cfg)
	opt := core.DefaultOptions(spec.History)

	ch, err := autotune.Tune(ctx, autotune.Config{
		N: spec.N, Opt: opt,
		SampleM: min(512, spec.M),
		Workers: workerCandidates(cfg.Workers),
		NoCache: true,
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(cfg.Out, "TUNE — startup autotuner sweep + verification (50%% NaN clouds, M=%d N=%d)\n", spec.M, spec.N)
	if ch.Seed.Observed {
		fmt.Fprintf(cfg.Out, "seed: pad waste %.1f%%, loop imbalance %.1f%% (from prior batches)\n",
			ch.Seed.PadWastePct, ch.Seed.ImbalancePct)
	} else {
		fmt.Fprintf(cfg.Out, "seed: no prior skew observations (default candidate order)\n")
	}
	fmt.Fprintf(cfg.Out, "sweep (%d candidates, per-pixel):\n", len(ch.Sweep))
	for _, c := range ch.Sweep {
		fmt.Fprintf(cfg.Out, "  %-12s T=%-3d workers=%-3d %10v\n", c.Strategy, c.TileWidth, c.Workers, c.PerPixel)
	}
	fmt.Fprintf(cfg.Out, "chosen: %s T=%d workers=%d (%v/pixel)\n\n",
		ch.StrategyName, ch.TileWidth, ch.Workers, ch.PerPixel)

	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(cfg.Out, "verification at M=%d (tuned tiled vs PR-1 masked path):\n", spec.M)
	fmt.Fprintf(cfg.Out, "%-12s %3s %3s %10s %10s %8s %10s %7s\n",
		"strategy", "T", "W", "masked", "tiled", "speedup", "identical", "chosen")
	rep := &TuneReport{Seed: ch.Seed, Sweep: ch.Sweep}
	for _, st := range tiledStrategies {
		tw, wk := ch.ForStrategy(st)
		bcfg := core.BatchConfig{Strategy: st, Workers: wk, TileWidth: tw}
		maskRes, maskT, err := bestOf(tilesReps, func() ([]core.Result, error) {
			return core.DetectBatchMasked(ctx, b, opt, bcfg)
		})
		if err != nil {
			return nil, err
		}
		tileRes, tileT, err := bestOf(tilesReps, func() ([]core.Result, error) {
			return core.DetectBatch(ctx, b, opt, bcfg)
		})
		if err != nil {
			return nil, err
		}
		row := TuneRow{
			Strategy: st.String(), TileWidth: bcfg.ResolvedTileWidth(), Workers: wk,
			M: spec.M, N: spec.N, History: spec.History, NaNFrac: spec.NaNFrac,
			Masked: maskT, Tiled: tileT,
			Speedup:   maskT.Seconds() / tileT.Seconds(),
			Identical: resultsIdentical(maskRes, tileRes),
			Chosen:    st == ch.Strategy,
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(cfg.Out, "%-12s %3d %3d %10s %10s %7.2fx %10v %7v\n",
			row.Strategy, row.TileWidth, row.Workers, shortDur(row.Masked), shortDur(row.Tiled),
			row.Speedup, row.Identical, row.Chosen)
	}
	return rep, nil
}

// workerCandidates narrows the autotuner's worker sweep to an explicit
// -workers flag when one was given.
func workerCandidates(workers int) []int {
	if workers > 0 {
		return []int{workers}
	}
	return nil
}
