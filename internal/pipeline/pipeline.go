// Package pipeline implements the end-to-end application of §III-D /
// Fig. 10: a scene (data cube) too large for device memory is split into
// chunks on the host; for each chunk the data are preprocessed, copied to
// the (simulated) device, run through the kernels, and the results copied
// back and merged into a break map. The per-phase times — preprocessing,
// chunking, transfer, kernel — are reported separately exactly as Fig. 10
// does, together with the modeled wall time with and without interleaving
// host and device phases.
//
// Host phases (chunk splitting, NaN-slice removal, float32 staging) are
// measured for real; transfer and kernel times come from the gpusim cost
// model, since the point of Fig. 10 is the *relative* weight of the
// phases on the paper's device.
//
// Host and device phases are also genuinely overlapped on the shared
// work-stealing scheduler: Run stages chunk c+1 while chunk c's kernels
// simulate, and RunFile simulates chunk c's kernels while the stream
// reads and stages chunk c+1. Phase sums and the assembled break map are
// identical to the sequential execution — only wall time changes.
package pipeline

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"bfast/internal/core"
	"bfast/internal/cube"
	"bfast/internal/gpusim"
	"bfast/internal/kernels"
	"bfast/internal/obs"
	"bfast/internal/sched"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Profile is the simulated device (default RTX2080Ti).
	Profile gpusim.Profile
	// Options are the BFAST-Monitor parameters (History refers to the
	// date axis *after* empty-slice removal when DropEmpty is set).
	Options core.Options
	// Strategy selects the kernel organization (default StrategyOurs).
	Strategy kernels.Strategy
	// Chunks is the number of host-side chunks (§V-B uses 50 for the
	// scenes that exceed device memory; default 1).
	Chunks int
	// PCIeGBs is the host-device transfer bandwidth in GB/s (default 12,
	// PCIe 3.0 x16 sustained).
	PCIeGBs float64
	// DropEmpty removes all-NaN date slices before processing (the
	// preprocessing step the paper applies to the Africa stacks).
	DropEmpty bool
	// SampleM, when positive, samples each chunk's kernel simulation to
	// ≈SampleM pixels. The returned break map then only covers sampled
	// pixels; leave 0 for full maps.
	SampleM int
	// Logger receives per-chunk debug logging. nil disables logging —
	// the pipeline never logs through a global logger.
	Logger *slog.Logger
}

func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.NopLogger()
}

func (c Config) withDefaults() Config {
	if c.Profile.Name == "" {
		c.Profile = gpusim.RTX2080Ti()
	}
	if c.Chunks <= 0 {
		c.Chunks = 1
	}
	if c.PCIeGBs <= 0 {
		c.PCIeGBs = 12
	}
	return c
}

// Phases is the Fig. 10 decomposition.
type Phases struct {
	// Preprocess is the measured host time for data-dependent setup
	// (empty-slice removal, parameter initialization).
	Preprocess time.Duration
	// Chunking is the measured host time for splitting and staging chunks
	// (including the float32 conversion of the upload buffers).
	Chunking time.Duration
	// Transfer is the modeled host↔device copy time.
	Transfer time.Duration
	// Kernel is the modeled device execution time.
	Kernel time.Duration
}

// Total sums all phases (the non-interleaved wall time).
func (p Phases) Total() time.Duration {
	return p.Preprocess + p.Chunking + p.Transfer + p.Kernel
}

// Result is the output of a pipeline run.
type Result struct {
	// Phases is the per-phase time decomposition summed over chunks.
	Phases Phases
	// WallInterleaved is the modeled wall time when host phases of chunk
	// i+1 overlap the device phases of chunk i (the interleaving §V-B
	// argues makes kernel time dominate).
	WallInterleaved time.Duration
	// Map is the assembled break map (monitoring-period offsets).
	Map *cube.BreakMap
	// KeptDates lists the original date indices kept by empty-slice
	// removal (nil when DropEmpty is off).
	KeptDates []int
	// Chunks is the number of chunks processed.
	Chunks int
	// Runs are all modeled kernel executions across chunks.
	Runs []gpusim.KernelRun
}

// Run executes the pipeline over the cube. Cancellation is checked at
// chunk granularity: when ctx is cancelled the current chunk's in-flight
// staging and simulation finish but no further chunk starts, and Run
// returns ctx.Err().
func Run(ctx context.Context, c *cube.Cube, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Chunks: cfg.Chunks}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, spRun := obs.StartSpan(ctx, "pipeline.run")
	spRun.SetAttr("chunks", cfg.Chunks)
	spRun.SetAttr("strategy", cfg.Strategy.String())
	defer spRun.End()
	lg := cfg.logger()

	// Phase: preprocessing (host, measured).
	work := c
	_, spPre := obs.StartSpan(ctx, "pipeline.preprocess")
	start := time.Now()
	if cfg.DropEmpty {
		compact, kept, err := c.DropEmptySlices()
		if err != nil {
			spPre.End()
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		work = compact
		res.KeptDates = kept
	}
	res.Phases.Preprocess = time.Since(start)
	spPre.End()

	if err := cfg.Options.Validate(work.Dates); err != nil {
		return nil, err
	}
	monLen := work.Dates - cfg.Options.History
	res.Map = cube.NewBreakMap(c.Width, c.Height, monLen)

	// Phase: chunk split (host, measured).
	_, spSplit := obs.StartSpan(ctx, "pipeline.chunking")
	start = time.Now()
	chunks := work.Chunks(cfg.Chunks)
	res.Phases.Chunking = time.Since(start)
	spSplit.End()

	// Chunk staging (float32 upload buffers, host, measured; charged to
	// the chunking phase like the paper's host-side chunk prep) is
	// *actually* overlapped with the kernel simulation: while chunk c runs
	// through the kernels, chunk c+1 is staged on the shared scheduler —
	// the §V-B interleaving the wall model below describes. Per-phase sums
	// are unchanged: each stage is still individually timed.
	stageChunk := func(ch cube.Chunk) (*kernels.Batch32, time.Duration, error) {
		t0 := time.Now()
		b32, err := kernels.FromFloat64(ch.Pixels, ch.Dates, ch.Values)
		if err != nil {
			return nil, 0, err
		}
		return b32, time.Since(t0), nil
	}
	pool := sched.Shared()
	cur, curStage, err := stageChunk(chunks[0])
	if err != nil {
		return nil, err
	}

	var hostPerChunk, devPerChunk []time.Duration
	for idx, ch := range chunks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, spCh := obs.StartSpan(ctx, "pipeline.chunk")
		spCh.SetAttr("idx", idx)
		spCh.SetAttr("pixels", ch.Pixels)
		// Kick off staging of the next chunk before simulating this one.
		var (
			next      *kernels.Batch32
			nextStage time.Duration
			nextTask  *sched.Task
		)
		if idx+1 < len(chunks) {
			nc := chunks[idx+1]
			nextTask = pool.Go(func() error {
				var e error
				next, nextStage, e = stageChunk(nc)
				return e
			})
		}

		res.Phases.Chunking += curStage

		// Transfer (modeled): pixels up, break+magnitude down.
		up := float64(4 * ch.Pixels * ch.Dates)
		down := float64(8 * ch.Pixels)
		transfer := time.Duration((up + down) / (cfg.PCIeGBs * 1e9) * 1e9)
		res.Phases.Transfer += transfer

		// Kernels (modeled).
		dev := gpusim.NewDevice(cfg.Profile)
		app, err := kernels.SimulateApp(dev, cur, cfg.Options, cfg.Strategy, cfg.SampleM)
		if err != nil {
			if nextTask != nil {
				_ = nextTask.Wait()
			}
			spCh.End()
			return nil, err
		}
		res.Phases.Kernel += app.KernelTime
		res.Runs = append(res.Runs, app.Runs...)

		hostPerChunk = append(hostPerChunk, curStage+transfer)
		devPerChunk = append(devPerChunk, app.KernelTime)

		// Merge results (only full-coverage runs fill the map).
		if cfg.SampleM <= 0 || cfg.SampleM >= ch.Pixels {
			for p := 0; p < ch.Pixels; p++ {
				res.Map.Break[ch.Start+p] = app.Breaks[p]
				res.Map.Magnitude[ch.Start+p] = float64(app.Means[p])
			}
		}

		spCh.SetAttr("stage_ns", int64(curStage))
		spCh.SetAttr("transfer_ns", int64(transfer))
		spCh.SetAttr("kernel_ns", int64(app.KernelTime))
		spCh.End()
		lg.Debug("pipeline chunk done",
			"idx", idx, "pixels", ch.Pixels,
			"stage", curStage, "transfer", transfer, "kernel", app.KernelTime)

		if nextTask != nil {
			if err := nextTask.Wait(); err != nil {
				return nil, err
			}
			cur, curStage = next, nextStage
		}
	}

	// Interleaved wall model: chunk i's host work overlaps chunk i-1's
	// device work; preprocessing happens once up front.
	wall := res.Phases.Preprocess + hostPerChunk[0]
	for i := range devPerChunk {
		step := devPerChunk[i]
		if i+1 < len(hostPerChunk) && hostPerChunk[i+1] > step {
			step = hostPerChunk[i+1]
		}
		wall += step
	}
	res.WallInterleaved = wall
	return res, nil
}

// MergeMagnitudeNaN returns the fraction of map pixels that could not be
// processed (NaN magnitude) — a sanity metric for high-NaN scenes.
func MergeMagnitudeNaN(m *cube.BreakMap) float64 {
	if len(m.Magnitude) == 0 {
		return 0
	}
	bad := 0
	for _, v := range m.Magnitude {
		if math.IsNaN(v) {
			bad++
		}
	}
	return float64(bad) / float64(len(m.Magnitude))
}

// RunFile executes the pipeline directly from a cube file, streaming one
// chunk at a time through cube.StreamChunks so the whole scene is never
// resident in host memory — the §V-B regime where "loading the images from
// disk to host ... has become the new bottleneck". DropEmpty is not
// supported in streaming mode (empty-slice analysis needs a full pass);
// run bfast-stack -drop-empty when building the file instead.
//
// Cancellation mirrors Run: checked before each streamed chunk is
// staged; the in-flight chunk's simulation is retired before returning
// ctx.Err().
func RunFile(ctx context.Context, path string, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.DropEmpty {
		return nil, fmt.Errorf("pipeline: DropEmpty is not supported in streaming mode")
	}
	ctx, spRun := obs.StartSpan(ctx, "pipeline.run_file")
	spRun.SetAttr("chunks", cfg.Chunks)
	spRun.SetAttr("strategy", cfg.Strategy.String())
	defer spRun.End()
	lg := cfg.logger()
	res := &Result{Chunks: cfg.Chunks}
	var hostPerChunk, devPerChunk []time.Duration

	// The kernel simulation of chunk c runs as a pending task on the
	// shared scheduler while StreamChunks reads and stages chunk c+1 —
	// the disk-read overlap §V-B calls out once loading becomes the
	// bottleneck. Results are merged only after Wait, on the caller
	// goroutine, so the break map and phase sums stay deterministic.
	pool := sched.Shared()
	var (
		pending     *sched.Task
		pendingCh   cube.Chunk
		pendingApp  *kernels.AppResult
		pendingSpan *obs.Span
		pendingIdx  int
	)
	flush := func() error {
		if pending == nil {
			return nil
		}
		err := pending.Wait()
		pending = nil
		defer pendingSpan.End()
		if err != nil {
			return err
		}
		res.Phases.Kernel += pendingApp.KernelTime
		res.Runs = append(res.Runs, pendingApp.Runs...)
		devPerChunk = append(devPerChunk, pendingApp.KernelTime)
		if cfg.SampleM <= 0 || cfg.SampleM >= pendingCh.Pixels {
			for p := 0; p < pendingCh.Pixels; p++ {
				res.Map.Break[pendingCh.Start+p] = pendingApp.Breaks[p]
				res.Map.Magnitude[pendingCh.Start+p] = float64(pendingApp.Means[p])
			}
		}
		pendingSpan.SetAttr("kernel_ns", int64(pendingApp.KernelTime))
		lg.Debug("pipeline chunk retired",
			"idx", pendingIdx, "pixels", pendingCh.Pixels, "kernel", pendingApp.KernelTime)
		return nil
	}
	err := cube.StreamChunks(path, cfg.Chunks, func(h cube.Header, ch cube.Chunk) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if res.Map == nil {
			if err := cfg.Options.Validate(h.Dates); err != nil {
				return err
			}
			res.Map = cube.NewBreakMap(h.Width, h.Height, h.Dates-cfg.Options.History)
		}
		// Stage this chunk (b32 is a fresh copy, so the previous chunk's
		// in-flight kernel task never touches the stream's read buffer).
		start := time.Now()
		b32, err := kernels.FromFloat64(ch.Pixels, ch.Dates, ch.Values)
		if err != nil {
			return err
		}
		stage := time.Since(start)
		res.Phases.Chunking += stage

		up := float64(4 * ch.Pixels * ch.Dates)
		down := float64(8 * ch.Pixels)
		transfer := time.Duration((up + down) / (cfg.PCIeGBs * 1e9) * 1e9)
		res.Phases.Transfer += transfer
		hostPerChunk = append(hostPerChunk, stage+transfer)

		// Retire the previous chunk's kernels, then launch this chunk's.
		if err := flush(); err != nil {
			return err
		}
		pendingIdx = len(hostPerChunk) - 1
		// The chunk span deliberately outlives this callback: it stays
		// open while the kernel task runs and is Ended by flush() (or
		// by the error path below) when the chunk retires.
		//lint:allow spanpair -- cross-iteration span; flush() and the StreamChunks error path End it
		_, pendingSpan = obs.StartSpan(ctx, "pipeline.chunk")
		pendingSpan.SetAttr("idx", pendingIdx)
		pendingSpan.SetAttr("pixels", ch.Pixels)
		pendingSpan.SetAttr("stage_ns", int64(stage))
		pendingSpan.SetAttr("transfer_ns", int64(transfer))
		lg.Debug("pipeline chunk staged",
			"idx", pendingIdx, "pixels", ch.Pixels, "stage", stage, "transfer", transfer)
		pendingCh = ch
		pending = pool.Go(func() error {
			dev := gpusim.NewDevice(cfg.Profile)
			app, err := kernels.SimulateApp(dev, b32, cfg.Options, cfg.Strategy, cfg.SampleM)
			if err != nil {
				return err
			}
			pendingApp = app
			return nil
		})
		return nil
	})
	if err != nil {
		if pending != nil {
			_ = pending.Wait()
		}
		// The in-flight chunk span would otherwise stay open in the
		// trace tree (spanpair); End is nil-safe when nothing is pending.
		pendingSpan.End()
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(devPerChunk) == 0 {
		return nil, fmt.Errorf("pipeline: no chunks processed")
	}
	wall := res.Phases.Preprocess + hostPerChunk[0]
	for i := range devPerChunk {
		step := devPerChunk[i]
		if i+1 < len(hostPerChunk) && hostPerChunk[i+1] > step {
			step = hostPerChunk[i+1]
		}
		wall += step
	}
	res.WallInterleaved = wall
	return res, nil
}
