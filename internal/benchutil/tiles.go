package benchutil

import (
	"context"

	"fmt"
	"time"

	"bfast/internal/autotune"
	"bfast/internal/core"
	"bfast/internal/workload"
)

// TilesRow is one before/after measurement of the PR-2 tiled kernels:
// the PR-1 masked per-pixel path against the time-major tiled path
// (valid-count binning + register-blocked cross products + batched tile
// Gauss-Jordan), on the same skewed cloud-masked scene, with
// bit-identical results verified.
type TilesRow struct {
	// Strategy names the batched strategy measured (see tiledStrategies).
	Strategy string
	// TileWidth is the tile width T of the tiled path.
	TileWidth int
	// M, N, History, NaNFrac describe the workload.
	M, N, History int
	NaNFrac       float64
	// Masked and Tiled are best-of-reps wall times for the PR-1 masked
	// per-pixel path and the tiled path.
	Masked, Tiled time.Duration
	// Speedup is Masked/Tiled.
	Speedup float64
	// Identical reports whether the two paths returned bit-identical
	// results on this run.
	Identical bool
}

// tilesReps is the number of timed repetitions per path (best is kept).
const tilesReps = 3

// tiledStrategies lists the strategies the tiled-path experiments
// (tiles, tune, obsoverhead) measure: StrategyOurs and StrategyRgTlEfSeq
// run the same tiled loop in core.DetectBatch, so one row describes it.
var tiledStrategies = []core.Strategy{core.StrategyOurs}

// Tiles measures the pixel-tiled kernels against the retained PR-1
// masked per-pixel implementations on the 50%-NaN spatially-correlated
// (MaskClouds) scene — the regime the tiling targets: correlated cloud
// masks give binned tiles aligned column masks, so whole-tile dates take
// the dense register-blocked path and the design matrix is streamed once
// per tile instead of once per pixel.
func Tiles(ctx context.Context, cfg Config) ([]TilesRow, error) {
	cfg = cfg.withDefaults()
	spec := workload.Spec{
		Name: "skew50", M: cfg.SampleM, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 7,
	}
	spec, _ = sampledSpec(spec, cfg)
	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions(spec.History)

	// With Config.Autotune, each strategy runs at the geometry the startup
	// autotuner measured best for this host instead of the defaults.
	var tuned *autotune.Choice
	if cfg.Autotune {
		tuned, err = autotune.Tune(ctx, autotune.Config{
			N: spec.N, Opt: opt,
			SampleM: min(512, spec.M),
			Workers: workerCandidates(cfg.Workers),
		})
		if err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(cfg.Out, "TILES — time-major pixel tiles + batched tile GJ vs PR-1 masked path (50%% NaN clouds, M=%d N=%d)\n", spec.M, spec.N)
	fmt.Fprintf(cfg.Out, "%-12s %3s %10s %10s %8s %10s\n", "strategy", "T", "masked", "tiled", "speedup", "identical")

	var rows []TilesRow
	for _, st := range tiledStrategies {
		bcfg := core.BatchConfig{Strategy: st, Workers: cfg.Workers}
		if tuned != nil {
			bcfg.TileWidth, bcfg.Workers = tuned.ForStrategy(st)
		}
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
		row := TilesRow{
			Strategy: st.String(), TileWidth: bcfg.ResolvedTileWidth(),
			M: spec.M, N: spec.N, History: spec.History, NaNFrac: spec.NaNFrac,
			Masked: maskT, Tiled: tileT,
			Speedup:   maskT.Seconds() / tileT.Seconds(),
			Identical: resultsIdentical(maskRes, tileRes),
		}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-12s %3d %10s %10s %7.2fx %10v\n",
			row.Strategy, row.TileWidth, shortDur(row.Masked), shortDur(row.Tiled), row.Speedup, row.Identical)
	}
	return rows, nil
}
