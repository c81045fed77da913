package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"bfast/internal/linalg"
	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/series"
	"bfast/internal/tile"
)

// Strategy names the code versions evaluated in Fig. 8 of the paper.
// gpusim/kernels.SimulateApp model all three; on the host DetectBatch
// runs one tiled loop for StrategyOurs and StrategyRgTlEfSeq (on a CPU
// the fused tile loop beats sweeping M-sized stage arrays at every tile
// width, so the staged organisation is not kept) and a per-pixel fused
// pass for StrategyFullEfSeq. All produce identical results.
type Strategy int

const (
	// StrategyOurs is the paper's winning strategy: the computation is
	// decomposed into batched kernels of same inner-parallel size
	// (ker 1–10 of Fig. 12). DetectBatch runs it as the tiled loop of
	// batch_tile.go.
	StrategyOurs Strategy = iota
	// StrategyRgTlEfSeq stages the matrix-multiplication-like kernels
	// (normal matrix, inversion, β) across a group of pixels but runs the
	// rest of the per-pixel computation fused ("RgTl-EfSeq" in Fig. 8).
	// DetectBatch runs the same tiled loop as for StrategyOurs.
	StrategyRgTlEfSeq
	// StrategyFullEfSeq fuses the entire per-pixel computation into one
	// pass per pixel ("Full-EfSeq" in Fig. 8) — minimal intermediates,
	// no cross-pixel staging.
	StrategyFullEfSeq
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyOurs:
		return "ours"
	case StrategyRgTlEfSeq:
		return "rgtl-efseq"
	case StrategyFullEfSeq:
		return "full-efseq"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// BatchConfig configures DetectBatch.
type BatchConfig struct {
	// Strategy names the execution organization (default StrategyOurs;
	// StrategyRgTlEfSeq runs the same tiled loop).
	Strategy Strategy
	// Workers is the number of goroutines (default GOMAXPROCS).
	Workers int
	// TileWidth is T, the number of pixels gathered into one time-major
	// tile by the tiled path's register-blocked kernels. 0 means
	// tile.DefaultWidth (8); 1 disables cross-pixel blocking; values are
	// clamped to tile.MaxWidth (64). Results are identical for every T.
	TileWidth int
	// Autotune asks for Strategy/Workers/TileWidth to be replaced by
	// this host's measured best for the workload shape. core cannot
	// resolve it (internal/autotune sits above this package); the public
	// bfast API, the server and bfast-bench resolve the flag through
	// autotune.Resolve before calling DetectBatch, which itself ignores
	// it and runs the explicit fields as given.
	Autotune bool
}

func (c BatchConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ResolvedTileWidth returns the effective tile width T after defaulting
// and clamping (the width DetectBatch will actually use).
func (c BatchConfig) ResolvedTileWidth() int { return c.tileWidth() }

func (c BatchConfig) tileWidth() int {
	switch {
	case c.TileWidth <= 0:
		return tile.DefaultWidth
	case c.TileWidth > tile.MaxWidth:
		return tile.MaxWidth
	}
	return c.TileWidth
}

// Batch is a dense M×N pixel batch: M series of length N, row-major,
// NaN = missing. It is the in-memory layout the kernels stream over
// (one row per pixel, dates contiguous).
type Batch struct {
	M, N int
	Y    []float64
}

// NewBatch validates and wraps a flat pixel matrix.
func NewBatch(m, n int, y []float64) (*Batch, error) {
	if m < 0 || n < 0 || len(y) != m*n {
		return nil, fmt.Errorf("core: batch data length %d != M*N = %d*%d", len(y), m, n)
	}
	return &Batch{M: m, N: n, Y: y}, nil
}

// Row returns pixel i's series (a view, not a copy).
func (b *Batch) Row(i int) []float64 { return b.Y[i*b.N : (i+1)*b.N] }

// Mask computes the batch's validity bitsets (bit t of pixel i set iff
// observation t is valid), in parallel over pixels. Every kernel pass of
// the batched strategies iterates these words instead of re-testing
// elements with math.IsNaN — the paper's "discover the NaN structure
// once" principle (§III-C) applied to the host path.
func (b *Batch) Mask(workers int) *series.BatchMask {
	//lint:allow ctxfirst -- pre-ctx compat wrapper; cancellable callers use MaskCtx
	bm, _ := b.MaskCtx(context.Background(), workers)
	return bm
}

// MaskCtx is Mask with cooperative cancellation: the mask sweep is the
// first parallel pass of every batched detection, so a cancelled request
// must be able to stop here too. Returns a nil mask and ctx.Err() when
// cut short.
func (b *Batch) MaskCtx(ctx context.Context, workers int) (*series.BatchMask, error) {
	sctx, sp := obs.StartSpan(ctx, "kernel.mask")
	sp.SetAttr("pixels", b.M)
	defer sp.End()
	bm := &series.BatchMask{M: b.M, N: b.N, WordsPerRow: series.MaskWords(b.N)}
	bm.Words = make([]uint64, b.M*bm.WordsPerRow)
	err := sched.Shared().ForEachCtx(sctx, b.M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			series.FillMask(b.Row(i), bm.Row(i))
		}
	})
	if err != nil {
		return nil, err
	}
	return bm, nil
}

// DetectBatch runs BFAST-Monitor over every pixel of the batch using the
// shared design matrix implied by opt (built internally) and the given
// execution strategy. All strategies return identical results, and all
// are bit-identical to the scalar Detect reference (and to
// DetectBatchReference, the pre-bitset seed path, and DetectBatchMasked,
// the pre-tiling PR-1 path).
//
// Execution: each pixel's validity bitset is computed once (MaskCtx).
// StrategyOurs and StrategyRgTlEfSeq then bin pixels by valid-count,
// gather them into time-major tiles of cfg.TileWidth pixels and run
// every kernel stage of a tile inside one steal unit on the shared
// work-stealing scheduler; pixels whose history masks are equal share
// one inverted normal matrix (maskclass.go). StrategyFullEfSeq stays on
// the fused per-pixel word-masked pass.
//
// Cancellation: ctx is checked before every steal unit (one tile, one
// tile of class representatives, or one block-cyclic pixel block). When
// ctx is cancelled the remaining units are abandoned, in-flight units
// finish, and DetectBatch returns ctx.Err(); the partial results are
// discarded. An already-cancelled context schedules no units at all.
func DetectBatch(ctx context.Context, b *Batch, opt Options, cfg BatchConfig) ([]Result, error) {
	res, _, err := detectBatch(ctx, b, opt, cfg, false)
	return res, err
}

// DetectPopulated is DetectBatch over the populated dates of the batch,
// those on which at least one pixel is valid — the empty-slice removal
// of §III-D (cube.DropEmptySlices) without its copy. The mask pass finds
// them by OR-ing the validity words, each pixel's bits are compacted in
// place to the kept dates, and the tiled loop gathers the values from
// b.Y through the kept-date list, so every pixel sums the same numbers
// in the same order as Detect on the compacted series. opt.History, the
// results' break offsets and Valid counts all refer to the compacted
// axis. It returns the kept dates (original indices, ascending); a batch
// with none returns no results, a nil list and no error, for the caller
// to report. cfg.Strategy must name the tiled loop. Cancellation is as
// for DetectBatch, the compaction passes included.
func DetectPopulated(ctx context.Context, b *Batch, opt Options, cfg BatchConfig) ([]Result, []int, error) {
	return detectBatch(ctx, b, opt, cfg, true)
}

// detectBatch runs DetectBatch, or with dropEmpty DetectPopulated, which
// can validate opt only once it knows how many dates are kept.
func detectBatch(ctx context.Context, b *Batch, opt Options, cfg BatchConfig, dropEmpty bool) ([]Result, []int, error) {
	var (
		lambda float64
		x      *series.DesignMatrix
		err    error
	)
	if !dropEmpty {
		if lambda, x, err = fitSetup(opt, b.N); err != nil {
			return nil, nil, err
		}
	}
	switch cfg.Strategy {
	case StrategyRgTlEfSeq, StrategyOurs:
	case StrategyFullEfSeq:
		if dropEmpty {
			return nil, nil, fmt.Errorf("core: %v reads whole rows and cannot skip empty dates", cfg.Strategy)
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown strategy %d", int(cfg.Strategy))
	}
	if b.M == 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if dropEmpty {
			return nil, nil, nil
		}
		return []Result{}, nil, nil
	}
	ctx, sp := obs.StartSpan(ctx, "core.detect_batch")
	sp.SetAttr("strategy", cfg.Strategy.String())
	sp.SetAttr("pixels", b.M)
	sp.SetAttr("dates_nominal", b.N)
	defer sp.End()
	mask, err := b.MaskCtx(ctx, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	var kept, dates []int // dates: the kept list when it skips any
	if dropEmpty {
		keep, err := populatedDates(ctx, mask, cfg.Workers)
		if err != nil {
			return nil, nil, err
		}
		if kept = series.AppendValidIndices(nil, keep, b.N); len(kept) == 0 {
			sp.SetAttr("dates_kept", 0)
			return nil, nil, nil
		}
		if lambda, x, err = fitSetup(opt, len(kept)); err != nil {
			return nil, nil, err
		}
		if len(kept) < b.N {
			if err := keepDates(ctx, mask, keep, cfg.Workers); err != nil {
				return nil, nil, err
			}
			dates = kept
		}
	}
	sp.SetAttr("dates_kept", mask.N)
	statKernelPixels.Add(int64(b.M))
	var res []Result
	if cfg.Strategy == StrategyFullEfSeq {
		res, err = batchFusedMasked(ctx, b, mask, x, opt, lambda, cfg.Workers)
	} else {
		res, err = batchTiled(ctx, b, mask, dates, x, opt, lambda, cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, kept, nil
}

// fitSetup validates opt for series of n dates and returns the
// monitoring boundary's λ and the design matrix.
func fitSetup(opt Options, n int) (float64, *series.DesignMatrix, error) {
	if err := opt.Validate(n); err != nil {
		return 0, nil, err
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return 0, nil, err
	}
	x, err := DesignFor(opt, n)
	if err != nil {
		return 0, nil, err
	}
	return lambda, x, nil
}

// populatedDates returns the bitset of the dates valid in at least one
// pixel of the mask: the OR of every row, reduced per worker and then
// across workers.
func populatedDates(ctx context.Context, mask *series.BatchMask, workers int) ([]uint64, error) {
	pool := sched.Shared()
	w := mask.WordsPerRow
	workers = pool.Workers(workers, mask.M)
	acc := make([]uint64, workers*w)
	err := pool.ForEachCtx(ctx, mask.M, workers, sched.DefaultGrain, func(id, lo, hi int) {
		or := acc[id*w : (id+1)*w]
		for i := lo; i < hi; i++ {
			for j, v := range mask.Row(i) {
				or[j] |= v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for j := w; j < len(acc); j++ {
		acc[j%w] |= acc[j]
	}
	return acc[:w], nil
}

// keepDates compacts every row of the mask in place to the dates set in
// keep, which become the mask's date axis.
func keepDates(ctx context.Context, mask *series.BatchMask, keep []uint64, workers int) error {
	err := sched.Shared().ForEachCtx(ctx, mask.M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			series.KeepBits(mask.Row(i), keep)
		}
	})
	if err != nil {
		return err
	}
	mask.N = series.CountBits(keep, mask.N)
	return nil
}

// DetectBatchMasked runs the staged strategies with the PR-1
// organization: per-pixel word-masked kernels over the whole batch,
// block-cyclically scheduled, without pixel tiling. It is retained (not
// dead code) as the "before" side of the tiling optimization — the
// equivalence tests pin the tiled path to it bit for bit, and the
// `tiles` experiment measures the tile speedup against it.
// StrategyFullEfSeq is dispatched exactly as DetectBatch does, and
// cancellation follows the same steal-unit contract.
func DetectBatchMasked(ctx context.Context, b *Batch, opt Options, cfg BatchConfig) ([]Result, error) {
	if err := opt.Validate(b.N); err != nil {
		return nil, err
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return nil, err
	}
	x, err := DesignFor(opt, b.N)
	if err != nil {
		return nil, err
	}
	switch cfg.Strategy {
	case StrategyFullEfSeq, StrategyRgTlEfSeq, StrategyOurs:
	default:
		return nil, fmt.Errorf("core: unknown strategy %d", int(cfg.Strategy))
	}
	if b.M == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []Result{}, nil
	}
	ctx, sp := obs.StartSpan(ctx, "core.detect_batch_masked")
	sp.SetAttr("strategy", cfg.Strategy.String())
	sp.SetAttr("pixels", b.M)
	defer sp.End()
	mask, err := b.MaskCtx(ctx, cfg.Workers)
	if err != nil {
		return nil, err
	}
	statKernelPixels.Add(int64(b.M))
	if cfg.Strategy == StrategyFullEfSeq {
		return batchFusedMasked(ctx, b, mask, x, opt, lambda, cfg.Workers)
	}
	return batchStagedFitMasked(ctx, b, mask, x, opt, lambda, cfg.Workers, cfg.Strategy == StrategyOurs)
}

// maskScratch is the per-worker working memory of the mask-driven
// fused passes: the normal matrix and right-hand side of the fit, and
// the compacted residual/index buffers of the monitoring phase.
type maskScratch struct {
	normal []float64 // K×K
	rhs    []float64 // K
	rBar   []float64 // compacted residuals (length N)
	iBar   []int     // original indices (length N)
}

func newMaskScratch(k, n int) *maskScratch {
	return &maskScratch{
		normal: make([]float64, k*k),
		rhs:    make([]float64, k),
		rBar:   make([]float64, n),
		iBar:   make([]int, n),
	}
}

// solveNormal computes β from the K×K normal matrix and right-hand side
// with the configured solver. Shared by every batched path so the
// floating-point sequence (and singularity behavior) is identical.
func solveNormal(m *linalg.Matrix, rhs []float64, opt Options) ([]float64, bool) {
	switch opt.Solver {
	case SolverCholesky:
		v, err := linalg.SolveSPD(m, rhs)
		return v, err == nil
	case SolverPivot:
		inv, err := linalg.InvertPivot(m)
		if err != nil {
			return nil, false
		}
		return linalg.MatVec(inv, rhs), true
	default:
		inv, err := linalg.InvertGaussJordan(m)
		if err != nil {
			return nil, false
		}
		return linalg.MatVec(inv, rhs), true
	}
}

// residualsMasked writes the compacted residuals r̄ = y − X̄ᵀβ and their
// original date indices for every valid observation, iterating the
// validity words (dense inner loop on all-valid words) instead of
// testing each element. Returns the number of residuals written. The
// arithmetic per observation matches the element-wise path exactly.
func residualsMasked(y []float64, words []uint64, x *series.DesignMatrix, beta []float64, r []float64, ix []int) int {
	N := x.N
	K := len(beta)
	w := 0
	emit := func(t int) {
		var pred float64
		for j := 0; j < K; j++ {
			pred += x.Data[j*N+t] * beta[j]
		}
		r[w] = y[t] - pred
		ix[w] = t
		w++
	}
	full := N / 64
	for wi := 0; wi < full; wi++ {
		wd := words[wi]
		base := wi * 64
		if wd == series.AllValidWord {
			for t := base; t < base+64; t++ {
				emit(t)
			}
			continue
		}
		for ; wd != 0; wd &= wd - 1 {
			emit(base + bits.TrailingZeros64(wd))
		}
	}
	if tail := N % 64; tail != 0 {
		wd := words[full] & (1<<uint(tail) - 1)
		base := full * 64
		for ; wd != 0; wd &= wd - 1 {
			emit(base + bits.TrailingZeros64(wd))
		}
	}
	return w
}

// batchFusedMasked is Full-EfSeq on the bitset path: one fused per-pixel
// pass with per-worker scratch, scheduled block-cyclically.
func batchFusedMasked(ctx context.Context, b *Batch, mask *series.BatchMask, x *series.DesignMatrix, opt Options, lambda float64, workers int) ([]Result, error) {
	ctx, sp := obs.StartSpan(ctx, "kernel.fused")
	sp.SetAttr("pixels", b.M)
	defer sp.End()
	out := make([]Result, b.M)
	n := opt.History
	xh := historySlice(x, n)
	err := sched.ForEachScratchCtx(ctx, sched.Shared(), b.M, workers, sched.DefaultGrain,
		func() *maskScratch { return newMaskScratch(opt.K(), b.N) },
		func(s *maskScratch, lo, hi int) {
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				detectMasked(b.Row(i), mask.Row(i), x, xh, opt, lambda, s, &out[i])
			}
			statFusedNs.Add(sinceNs(t0))
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// detectMasked is the fused per-pixel pass driven by the validity
// bitset; bit-identical to detectResolved.
func detectMasked(y []float64, words []uint64, x *series.DesignMatrix, xh *linalg.Matrix, opt Options, lambda float64, s *maskScratch, res *Result) {
	n := opt.History
	nBar := series.CountBits(words, n)
	nVal := series.CountBits(words, len(y))
	*res = Result{Status: StatusOK, BreakIndex: -1, ValidHistory: nBar, Valid: nVal}
	if nBar < opt.minHist() {
		res.Status = StatusInsufficientHistory
		return
	}
	linalg.MaskedCrossProductBits(xh, words, s.normal)
	linalg.MaskedMatVecBits(xh, y[:n], words, s.rhs)
	K := opt.K()
	beta, ok := solveNormal(linalg.NewMatrixFrom(K, K, s.normal), s.rhs, opt)
	if !ok {
		res.Status = StatusSingular
		return
	}
	res.Beta = beta
	w := residualsMasked(y, words, x, beta, s.rBar, s.iBar)
	nMon := w - nBar
	mo := monitorSeries(s.rBar[:w], nBar, nMon, opt, lambda)
	res.Status = mo.status
	res.Sigma = mo.sigma
	res.MosumMean = mo.mean
	if mo.brk >= 0 {
		if orig := s.iBar[nBar+mo.brk]; orig >= n {
			res.BreakIndex = orig - n
		}
	}
}

// batchStagedFitMasked implements the staged strategies on the bitset
// path. Structure mirrors the seed implementation (see batch_seed.go),
// with three differences: per-pixel NaN patterns come from the batch
// mask instead of per-element IsNaN tests, the padding writes of the
// residual stage are skipped (the monitoring loop only reads the
// compacted prefix), and every sweep runs block-cyclically on the
// shared scheduler. Cancellation is checked before every steal unit of
// every sweep, and between sweeps.
func batchStagedFitMasked(ctx context.Context, b *Batch, mask *series.BatchMask, x *series.DesignMatrix, opt Options, lambda float64, workers int, fullStaging bool) ([]Result, error) {
	M, N := b.M, b.N
	n := opt.History
	K := opt.K()
	out := make([]Result, M)
	pool := sched.Shared()

	xh := historySlice(x, n)

	// Stage arrays (padded to uniform sizes, like the GPU buffers).
	normal := make([]float64, M*K*K) // ker 1-2: X̄_h·X̄_hᵀ per pixel
	beta := make([]float64, M*K)     // ker 3-5: fitted coefficients
	fitted := make([]bool, M)

	// ker 1-2: batched masked cross product over validity words.
	sctx, sp := obs.StartSpan(ctx, "kernel.cross_product")
	err := pool.ForEachCtx(sctx, M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			words := mask.Row(i)
			out[i] = Result{
				Status:       StatusOK,
				BreakIndex:   -1,
				ValidHistory: series.CountBits(words, n),
				Valid:        series.CountBits(words, N),
			}
			if out[i].ValidHistory < opt.minHist() {
				out[i].Status = StatusInsufficientHistory
				continue
			}
			linalg.MaskedCrossProductBits(xh, words, normal[i*K*K:(i+1)*K*K])
			fitted[i] = true
		}
		statCrossNs.Add(sinceNs(t0))
	})
	sp.End()
	if err != nil {
		return nil, err
	}

	// ker 3-5: batched inversion + β, right-hand side via mask words.
	sctx, sp = obs.StartSpan(ctx, "kernel.invert")
	err = sched.ForEachScratchCtx(sctx, pool, M, workers, sched.DefaultGrain,
		func() []float64 { return make([]float64, K) },
		func(rhs []float64, lo, hi int) {
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				if !fitted[i] {
					continue
				}
				m := linalg.NewMatrixFrom(K, K, normal[i*K*K:(i+1)*K*K])
				linalg.MaskedMatVecBits(xh, b.Row(i)[:n], mask.Row(i), rhs)
				bta, ok := solveNormal(m, rhs, opt)
				if !ok {
					out[i].Status = StatusSingular
					fitted[i] = false
					continue
				}
				copy(beta[i*K:(i+1)*K], bta)
				out[i].Beta = beta[i*K : (i+1)*K : (i+1)*K]
			}
			statInvertNs.Add(sinceNs(t0))
		})
	sp.End()
	if err != nil {
		return nil, err
	}

	if !fullStaging {
		// RgTl-EfSeq: fused monitoring per pixel, per-worker scratch.
		sctx, sp = obs.StartSpan(ctx, "kernel.mosum")
		err = sched.ForEachScratchCtx(sctx, pool, M, workers, sched.DefaultGrain,
			func() *maskScratch { return newMaskScratch(K, N) },
			func(s *maskScratch, lo, hi int) {
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					if !fitted[i] {
						continue
					}
					monitorPixelMasked(b.Row(i), mask.Row(i), x, opt, lambda, beta[i*K:(i+1)*K], s, &out[i])
				}
				statMosumNs.Add(sinceNs(t0))
			})
		sp.End()
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	// "Ours": stage the monitoring kernels too, with padded buffers.
	residual := make([]float64, M*N) // ker 6-7: compacted residuals
	index := make([]int, M*N)        // ker 7: original date index per residual
	nBarArr := make([]int, M)
	nValArr := make([]int, M)

	// ker 6-7: predictions, residuals, compaction via validity words.
	sctx, sp = obs.StartSpan(ctx, "kernel.residual")
	err = pool.ForEachCtx(sctx, M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if !fitted[i] {
				continue
			}
			w := residualsMasked(b.Row(i), mask.Row(i), x, beta[i*K:(i+1)*K],
				residual[i*N:(i+1)*N], index[i*N:(i+1)*N])
			nBarArr[i] = out[i].ValidHistory
			nValArr[i] = w
		}
		statResidualNs.Add(sinceNs(t0))
	})
	sp.End()
	if err != nil {
		return nil, err
	}

	// ker 8-10: σ̂, fluctuation process, boundary test, remap — staged
	// sweep through the shared monitoring loop.
	sctx, sp = obs.StartSpan(ctx, "kernel.mosum")
	err = pool.ForEachCtx(sctx, M, workers, sched.DefaultGrain, func(_, lo, hi int) {
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if !fitted[i] {
				continue
			}
			res := &out[i]
			nBar := nBarArr[i]
			nMon := nValArr[i] - nBar
			r := residual[i*N : (i+1)*N]
			mo := monitorSeries(r, nBar, nMon, opt, lambda)
			res.Status = mo.status
			res.Sigma = mo.sigma
			res.MosumMean = mo.mean
			if mo.brk >= 0 {
				orig := index[i*N+nBar+mo.brk]
				if orig >= n {
					res.BreakIndex = orig - n
				}
			}
		}
		statMosumNs.Add(sinceNs(t0))
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// monitorPixelMasked runs the fused monitoring phase (ker 6–10) for one
// pixel with a pre-fitted β, driven by the validity words; bit-identical
// to monitorPixel. res must already carry the pixel's valid counts.
func monitorPixelMasked(y []float64, words []uint64, x *series.DesignMatrix, opt Options, lambda float64, beta []float64, s *maskScratch, res *Result) {
	n := opt.History
	w := residualsMasked(y, words, x, beta, s.rBar, s.iBar)
	nBar := res.ValidHistory
	nMon := w - nBar
	mo := monitorSeries(s.rBar[:w], nBar, nMon, opt, lambda)
	res.Status = mo.status
	res.Sigma = mo.sigma
	res.MosumMean = mo.mean
	if mo.brk >= 0 {
		if orig := s.iBar[nBar+mo.brk]; orig >= n {
			res.BreakIndex = orig - n
		}
	}
}

// monitorPixel runs the fused monitoring phase (ker 6–10) for one pixel
// with a pre-fitted β, writing into res. Element-wise variant used by
// the seed reference path.
func monitorPixel(y []float64, x *series.DesignMatrix, opt Options, lambda float64, beta []float64, res *Result) {
	n := opt.History
	K := opt.K()
	f := series.FilterMissing(y, n)
	rBar := make([]float64, f.NValid)
	for i := 0; i < f.NValid; i++ {
		t := f.Index[i]
		var pred float64
		for j := 0; j < K; j++ {
			pred += x.Data[j*x.N+t] * beta[j]
		}
		rBar[i] = f.Values[i] - pred
	}
	nBar := f.NValidHist
	nMon := f.NValid - nBar
	mo := monitorSeries(rBar, nBar, nMon, opt, lambda)
	res.Status = mo.status
	res.Sigma = mo.sigma
	res.MosumMean = mo.mean
	if mo.brk >= 0 {
		res.BreakIndex = series.RemapIndex(f, mo.brk, n)
	}
}
