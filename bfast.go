// Package bfast is a pure-Go implementation of BFAST-Monitor — break
// detection for additive season and trend models — for satellite time
// series with missing values, reproducing the massively-parallel system of
// Gieseke et al., "Massively-Parallel Change Detection for Satellite Time
// Series Data with Missing Values" (ICDE 2020).
//
// The package offers three levels of use:
//
//   - Detector: fit-and-monitor for single pixel series or in-memory
//     batches, parallelized across CPU cores (the production path).
//   - ProcessCube: the full application pipeline over a data cube —
//     empty-slice removal, detection, break-map assembly — in one pass of
//     the tiled loop; the populated dates are a view, not a copy.
//   - SimulateGPU: the instrumented GPU-execution simulation used to
//     reproduce the paper's performance figures (see DESIGN.md and
//     EXPERIMENTS.md).
//
// A minimal example:
//
//	opt := bfast.DefaultOptions(113) // history = first 113 dates
//	det, err := bfast.NewDetector(235, opt)
//	res, err := det.Detect(ctx, series) // series: 235 values, NaN = missing
//	if res.HasBreak() { ... }
//
// All batch entry points take a context.Context: deadlines and
// cancellations propagate into the work-stealing scheduler at steal-unit
// granularity, so a cancelled call stops scheduling work promptly
// instead of running every pixel (see DESIGN.md §6).
package bfast

import (
	"context"
	"errors"
	"fmt"

	"bfast/internal/autotune"
	"bfast/internal/core"
	"bfast/internal/cube"
	"bfast/internal/history"
	"bfast/internal/series"
	"bfast/internal/stats"
)

// Options configures a BFAST-Monitor run; see DefaultOptions.
type Options = core.Options

// Result is the per-pixel output: break index, magnitude, diagnostics.
type Result = core.Result

// Status classifies whether a pixel could be modeled and monitored.
type Status = core.Status

// Batch is a dense M×N in-memory pixel batch (NaN = missing).
type Batch = core.Batch

// Strategy names a batched execution organization of Fig. 8 of the
// paper; the default StrategyOurs is right for almost all uses. On the
// host, StrategyOurs and StrategyRgTlEfSeq run the same fused tiled
// loop; the three-way split matters to SimulateGPU, which models the
// paper's three code versions.
type Strategy = core.Strategy

// Solver selects the linear-system method used for model fitting.
type Solver = core.Solver

// Re-exported enumeration values. See the core package for semantics.
const (
	StatusOK                  = core.StatusOK
	StatusInsufficientHistory = core.StatusInsufficientHistory
	StatusSingular            = core.StatusSingular
	StatusNoMonitoringData    = core.StatusNoMonitoringData
	StatusNoVariance          = core.StatusNoVariance

	StrategyOurs      = core.StrategyOurs
	StrategyRgTlEfSeq = core.StrategyRgTlEfSeq
	StrategyFullEfSeq = core.StrategyFullEfSeq

	SolverGaussJordan = core.SolverGaussJordan
	SolverPivot       = core.SolverPivot
	SolverCholesky    = core.SolverCholesky

	BoundaryPaper       = stats.BoundaryPaper
	BoundaryStrucchange = stats.BoundaryStrucchange

	SigmaFig12    = stats.SigmaFig12
	SigmaSection2 = stats.SigmaSection2
)

// DefaultOptions returns the bfastmonitor defaults for a given history
// length (in dates): k = 3 harmonics, 16-day frequency (f = 23),
// hf = 0.25, 5% monitoring level.
func DefaultOptions(history int) Options { return core.DefaultOptions(history) }

// NewBatch wraps a flat row-major M×N pixel matrix as a Batch.
func NewBatch(m, n int, y []float64) (*Batch, error) { return core.NewBatch(m, n, y) }

// Detector holds a validated option set and the precomputed design matrix
// for a fixed series length, ready to process any number of pixels.
type Detector struct {
	opt    Options
	n      int
	design *series.DesignMatrix
}

// NewDetector validates opt against series length n and precomputes the
// design matrix (Eq. 3 of the paper).
func NewDetector(n int, opt Options) (*Detector, error) {
	if err := opt.Validate(n); err != nil {
		return nil, err
	}
	if _, err := opt.ResolveLambda(); err != nil {
		return nil, err
	}
	x, err := core.DesignFor(opt, n)
	if err != nil {
		return nil, err
	}
	return &Detector{opt: opt, n: n, design: x}, nil
}

// Options returns the detector's option set.
func (d *Detector) Options() Options { return d.opt }

// SeriesLen returns the series length the detector was built for.
func (d *Detector) SeriesLen() int { return d.n }

// BatchOptions configures a DetectBatch call — the consolidated knobs of
// the old pre-context DetectBatch family. The zero value is the
// production default: the tiled path (one tile per steal unit, pixels
// with equal history masks sharing one inverse), work-stealing across
// GOMAXPROCS workers, default tile width.
type BatchOptions struct {
	// Workers is the number of goroutines (<= 0 uses GOMAXPROCS).
	Workers int
	// Strategy names the batched execution organization (Fig. 8); the
	// zero value StrategyOurs is right for almost all uses.
	// StrategyOurs and StrategyRgTlEfSeq run the same tiled loop,
	// StrategyFullEfSeq a per-pixel fused pass. All return identical
	// results.
	Strategy Strategy
	// TileWidth is T, the pixels per time-major tile of the tiled path
	// (0 = default, see core.BatchConfig).
	TileWidth int
	// Autotune replaces Strategy/Workers/TileWidth with this host's
	// measured best for the batch's shape (internal/autotune): the first
	// call per (host, K, N, history) runs a sub-second micro-benchmark
	// sweep, later calls hit the in-process or on-disk cache
	// (os.UserCacheDir()/bfast/autotune.json).
	Autotune bool
}

// Detect runs BFAST-Monitor on a single pixel series (length must match
// the detector's series length; NaN marks missing values). The context
// is accepted for interface symmetry with DetectBatch; a single-pixel
// detection is one indivisible unit of work, so it is only checked on
// entry.
func (d *Detector) Detect(ctx context.Context, y []float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if len(y) != d.n {
		return Result{}, fmt.Errorf("bfast: series length %d, detector built for %d", len(y), d.n)
	}
	return core.Detect(y, d.design, d.opt)
}

// DetectBatch runs BFAST-Monitor over every pixel of the batch in
// parallel and returns one Result per pixel. Cancellation of ctx is
// honored at steal-unit granularity: remaining pixel blocks/tiles are
// abandoned, in-flight ones finish, and ctx.Err() is returned.
//
// This is the consolidated batch entry point: the zero BatchOptions is
// right for almost all uses; Strategy/TileWidth expose the execution
// organizations and tile geometry for benchmarking and tuning.
func (d *Detector) DetectBatch(ctx context.Context, b *Batch, opts BatchOptions) ([]Result, error) {
	if b.N != d.n {
		return nil, fmt.Errorf("bfast: batch has %d dates, detector built for %d", b.N, d.n)
	}
	cfg := core.BatchConfig{
		Strategy:  opts.Strategy,
		Workers:   opts.Workers,
		TileWidth: opts.TileWidth,
		Autotune:  opts.Autotune,
	}
	cfg, err := autotune.Resolve(ctx, cfg, d.n, d.opt)
	if err != nil {
		return nil, fmt.Errorf("bfast: autotune: %w", err)
	}
	return core.DetectBatch(ctx, b, d.opt, cfg)
}

// MosumBoundary returns the monitoring boundary b_t for offset t given the
// detector's options and a pixel's valid-history count — useful for
// plotting the process against its envelope.
func (d *Detector) MosumBoundary(t, validHistory int) (float64, error) {
	lambda, err := d.opt.ResolveLambda()
	if err != nil {
		return 0, err
	}
	return stats.Boundary(d.opt.Boundary, lambda, t, validHistory), nil
}

// SelectStableHistory runs the reverse-ordered CUSUM test (bfastmonitor's
// history = "ROC") on the series' history period and returns the date
// index at which the stable history begins (0 = the whole history is
// stable). level must be 0.10, 0.05 or 0.01.
func (d *Detector) SelectStableHistory(y []float64, level float64) (int, error) {
	if len(y) != d.n {
		return 0, fmt.Errorf("bfast: series length %d, detector built for %d", len(y), d.n)
	}
	return history.ROC(y, d.design, d.opt.History, level)
}

// DetectStable runs SelectStableHistory at the 5% level, masks the
// pre-stable observations, and then runs Detect — the full bfastmonitor
// default pipeline. The returned int is the stable-history start.
func (d *Detector) DetectStable(y []float64) (Result, int, error) {
	start, err := d.SelectStableHistory(y, 0.05)
	if err != nil {
		return Result{}, 0, err
	}
	if start > 0 {
		y = history.MaskUnstable(y, start)
	}
	res, err := d.Detect(context.Background(), y)
	return res, start, err
}

// Cube is a W×H×dates raster stack (see the cube package for IO).
type Cube = cube.Cube

// BreakMap is a rendered detection result raster.
type BreakMap = cube.BreakMap

// NewCube returns an all-NaN cube.
func NewCube(w, h, dates int) (*Cube, error) { return cube.New(w, h, dates) }

// CubeFromFlat wraps flat pixel-major data as a cube.
func CubeFromFlat(w, h, dates int, values []float64) (*Cube, error) {
	return cube.FromFlat(w, h, dates, values)
}

// ReadCubeFile loads a cube from the binary cube format.
func ReadCubeFile(path string) (*Cube, error) { return cube.ReadFile(path) }

// ProcessCubeStable is ProcessCube preceded by per-pixel ROC stable-
// history selection (bfastmonitor's default pipeline): each pixel's
// pre-stable observations are masked before fitting. level must be 0.10,
// 0.05 or 0.01. Cancellation of ctx stops both the ROC sweep and the
// detection sweep at steal-unit granularity.
func ProcessCubeStable(ctx context.Context, c *Cube, opt Options, level float64, workers int) (*BreakMap, error) {
	b, err := core.NewBatch(c.Pixels(), c.Dates, c.Values)
	if err != nil {
		return nil, err
	}
	trimmed, _, err := history.TrimBatch(ctx, b, opt, level, workers)
	if err != nil {
		return nil, err
	}
	results, err := core.DetectBatch(ctx, trimmed, opt, core.BatchConfig{Workers: workers})
	if err != nil {
		return nil, err
	}
	return breakMap(c, c.Dates-opt.History, results), nil
}

// ProcessCube runs the complete detection over a cube on the CPU
// (parallel across cores, the tiled loop of DetectBatch) and assembles
// the break map. dropEmpty skips all-NaN date slices (History then
// refers to the compacted axis); the populated dates are a view of the
// cube, not a copy. Cancellation of ctx abandons the remaining steal
// units and returns ctx.Err().
func ProcessCube(ctx context.Context, c *Cube, opt Options, dropEmpty bool, workers int) (*BreakMap, error) {
	b, err := core.NewBatch(c.Pixels(), c.Dates, c.Values)
	if err != nil {
		return nil, err
	}
	cfg := core.BatchConfig{Workers: workers}
	if !dropEmpty {
		results, err := core.DetectBatch(ctx, b, opt, cfg)
		if err != nil {
			return nil, err
		}
		return breakMap(c, c.Dates-opt.History, results), nil
	}
	results, kept, err := core.DetectPopulated(ctx, b, opt, cfg)
	if err != nil {
		return nil, err
	}
	if kept == nil {
		return nil, errors.New("cube: every slice is empty")
	}
	return breakMap(c, len(kept)-opt.History, results), nil
}

// breakMap assembles the per-pixel results into a break map with
// monitor monitoring dates.
func breakMap(c *Cube, monitor int, results []Result) *BreakMap {
	m := cube.NewBreakMap(c.Width, c.Height, monitor)
	for i, r := range results {
		m.Break[i] = r.BreakIndex
		if r.Status == core.StatusOK {
			m.Magnitude[i] = r.MosumMean
		}
	}
	return m
}

// StreamMonitor is the near-real-time per-pixel monitor: the history model
// is fitted once, then new observations are pushed as they are acquired
// (each update is O(K)) and the break is flagged the moment the process
// crosses its boundary — the paper's motivating early-warning use case.
type StreamMonitor = core.Monitor

// StreamState is the monitor's standing after a push.
type StreamState = core.State

// NewStreamMonitor fits the history model on the first opt.History entries
// of history and returns a streaming monitor; seriesLen is the total
// number of dates the design matrix must cover.
func NewStreamMonitor(history []float64, seriesLen int, opt Options) (*StreamMonitor, error) {
	return core.NewMonitor(history, seriesLen, opt)
}

// TraceProcess computes the full monitoring-process trajectory (process
// values, significance envelope, crossing point) for one pixel — the
// per-pixel diagnostic of Fig. 2 of the paper, ready for plotting.
func (d *Detector) TraceProcess(y []float64) (core.ProcessTrace, error) {
	if len(y) != d.n {
		return core.ProcessTrace{}, fmt.Errorf("bfast: series length %d, detector built for %d", len(y), d.n)
	}
	return core.Trace(y, d.design, d.opt)
}

// ProcessTrace is the per-pixel monitoring trajectory returned by
// Detector.TraceProcess.
type ProcessTrace = core.ProcessTrace
