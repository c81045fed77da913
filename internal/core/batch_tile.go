package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"bfast/internal/linalg"
	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/series"
	"bfast/internal/tile"
)

// This file implements the pixel-tiled execution DetectBatch runs for
// StrategyOurs and StrategyRgTlEfSeq: pixels are binned by valid-count
// and gathered T at a time into time-major tiles (internal/tile), the
// fit kernels run register-blocked over whole tiles, and the K×K normal
// systems of a tile are inverted together by the lane-interleaved
// batched Gauss-Jordan (linalg.GJBatch) — the CPU analogues of the
// paper's Fig. 4 register tiling and Fig. 5 shared-memory inversion.
// One tile is one steal unit on the shared scheduler, and every stage of
// a tile runs inside it on per-worker scratch. Pixels that share their
// history mask share one inverse (maskclass.go). Results are
// bit-identical to scalar Detect, DetectBatchReference and
// DetectBatchMasked.

// tileScratch is the per-worker working set of the tiled kernels: one
// gathered tile plus the lane-interleaved fit and monitoring buffers.
type tileScratch struct {
	data *tile.Data
	sc   *tile.Schedule // per-tile date segments, rebuilt per gather
	nrm  []float64      // K×K×T lane-interleaved normal matrices
	rhs  []float64      // K×T right-hand sides
	inv  []float64      // K×K×T inverses
	beta []float64      // K×T coefficients
	sing []bool         // per-lane singularity flags
	fit  []bool         // per-lane fittable flags
	gj   *linalg.GJBatch
	fm   []float64 // K×K single-lane extraction (non-GJ solvers)
	fr   []float64 // K single-lane right-hand side
	rbuf []float64 // T×N lane-major compacted residuals
	ix   []int32   // T×N original date indices
	nVal []int     // per-lane residual counts
}

func newTileScratch(k, n, t int) *tileScratch {
	return &tileScratch{
		data: tile.NewData(t, n),
		sc:   tile.NewSchedule(n),
		nrm:  make([]float64, k*k*t),
		rhs:  make([]float64, k*t),
		inv:  make([]float64, k*k*t),
		beta: make([]float64, k*t),
		sing: make([]bool, t),
		fit:  make([]bool, t),
		gj:   linalg.NewGJBatch(k, t),
		fm:   make([]float64, k*k),
		fr:   make([]float64, k),
		rbuf: make([]float64, t*n),
		ix:   make([]int32, t*n),
		nVal: make([]int, t),
	}
}

// scratchKey is the shape a tileScratch is sized for.
type scratchKey struct{ k, n, t int }

// tileScratchPools maps a scratchKey to the sync.Pool of scratches of
// that shape, so a call — above all a 1–4-pixel serving request, whose
// scratch is most of what it would allocate — reuses the buffers of an
// earlier one. Stale contents are harmless: every buffer is written for
// the active lanes before it is read, and no kernel reads masked-out or
// inactive-lane slots (see tile.Data). One entry per distinct (K, N, T)
// the process has run.
var tileScratchPools sync.Map

func getTileScratch(key scratchKey) *tileScratch {
	if p, ok := tileScratchPools.Load(key); ok {
		if s, _ := p.(*sync.Pool).Get().(*tileScratch); s != nil {
			return s
		}
	}
	return newTileScratch(key.k, key.n, key.t)
}

func putTileScratch(key scratchKey, s *tileScratch) {
	p, ok := tileScratchPools.Load(key)
	if !ok {
		p, _ = tileScratchPools.LoadOrStore(key, new(sync.Pool))
	}
	p.(*sync.Pool).Put(s)
}

// forEachTileScratch runs body over [0, tiles), one tile per steal unit
// on the shared scheduler, handing each worker a pooled tileScratch that
// goes back to the pool when the loop returns.
func forEachTileScratch(ctx context.Context, key scratchKey, tiles, workers int, body func(s *tileScratch, ti int)) error {
	pool := sched.Shared()
	scratch := make([]*tileScratch, pool.Workers(workers, tiles))
	defer func() {
		for _, s := range scratch {
			if s != nil {
				putTileScratch(key, s)
			}
		}
	}()
	return pool.ForEachCtx(ctx, tiles, len(scratch), 1, func(id, lo, hi int) {
		if scratch[id] == nil {
			scratch[id] = getTileScratch(key)
		}
		for ti := lo; ti < hi; ti++ {
			body(scratch[id], ti)
		}
	})
}

// initTileResults fills the per-pixel counts and fittable flags for the
// gathered tile's lanes, returning whether any lane can be fitted.
func initTileResults(idx []int, mask *series.BatchMask, opt Options, fit []bool, out []Result) bool {
	n := opt.History
	minHist := opt.minHist()
	anyFit := false
	for p, px := range idx {
		words := mask.Row(px)
		out[px] = Result{
			Status:       StatusOK,
			BreakIndex:   -1,
			ValidHistory: series.CountBits(words, n),
			Valid:        series.CountBits(words, mask.N),
		}
		fit[p] = out[px].ValidHistory >= minHist
		if fit[p] {
			anyFit = true
		} else {
			out[px].Status = StatusInsufficientHistory
		}
	}
	return anyFit
}

// solveTile turns the tile's lane-interleaved normal matrices and
// right-hand sides into coefficients. For the paper's Gauss-Jordan
// solver all lanes reduce together in the batched interleaved scratch —
// or, when shared is non-nil, take their class's inverse from it and
// skip the reduction; the pivoting/Cholesky library solvers fall back to
// per-lane extraction through the shared solveNormal, so singularity
// behaviour matches the untiled paths exactly. Lanes that fail are
// flagged StatusSingular.
func solveTile(s *tileScratch, k int, opt Options, shared *maskClasses, idx []int, out []Result) {
	t := s.data.T
	cnt := s.data.P
	if opt.Solver == SolverGaussJordan {
		if shared != nil {
			shared.fanOut(s, k, idx)
		} else {
			s.gj.Invert(s.nrm, s.inv, s.sing, cnt)
		}
		linalg.MatVecBatch(k, t, cnt, s.inv, s.rhs, s.beta)
		for p, px := range idx {
			if !s.fit[p] {
				continue
			}
			if s.sing[p] {
				out[px].Status = StatusSingular
				s.fit[p] = false
			}
		}
		return
	}
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		for e := 0; e < k*k; e++ {
			s.fm[e] = s.nrm[e*t+p]
		}
		for j := 0; j < k; j++ {
			s.fr[j] = s.rhs[j*t+p]
		}
		bta, ok := solveNormal(linalg.NewMatrixFrom(k, k, s.fm), s.fr, opt)
		if !ok {
			out[px].Status = StatusSingular
			s.fit[p] = false
			continue
		}
		for j := 0; j < k; j++ {
			s.beta[j*t+p] = bta[j]
		}
	}
}

// publishBeta copies each fitted lane's coefficients out of the
// interleaved buffer into the pixel's result, carved from one slab per
// tile.
func publishBeta(s *tileScratch, k int, idx []int, out []Result) {
	t := s.data.T
	fitted := 0
	for p := range idx {
		if s.fit[p] {
			fitted++
		}
	}
	slab := make([]float64, fitted*k)
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		bta := slab[:k:k]
		slab = slab[k:]
		for j := range bta {
			bta[j] = s.beta[j*t+p]
		}
		out[px].Beta = bta
	}
}

// monitorTile runs the monitoring phase (ker 8–10) over the tile's
// compacted residuals, lane by lane; bit-identical to monitorPixelMasked.
func monitorTile(s *tileScratch, n, nDates int, opt Options, lambda float64, idx []int, out []Result) {
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		res := &out[px]
		nBar := res.ValidHistory
		w := s.nVal[p]
		mo := monitorSeries(s.rbuf[p*nDates:p*nDates+w], nBar, w-nBar, opt, lambda)
		res.Status = mo.status
		res.Sigma = mo.sigma
		res.MosumMean = mo.mean
		if mo.brk >= 0 {
			if orig := int(s.ix[p*nDates+nBar+mo.brk]); orig >= n {
				res.BreakIndex = orig - n
			}
		}
	}
}

// batchTiled is the tiled execution: per tile, the fit kernels run
// staged across the tile's lanes (cross product → batched inversion → β)
// and the monitoring phase follows fused, all inside one steal unit with
// per-worker scratch. Tiles never touch shared intermediates, so the
// whole pixel's data stays in cache between stages.
//
// With the Gauss-Jordan solver and more than one tile, the batch is
// first grouped by history mask and every class of two or more pixels
// is inverted once (newMaskClasses). A tile whose fittable lanes all
// belong to such classes skips its own cross product and inversion; any
// other tile runs them for all its lanes, as a batch without repeated
// masks does throughout.
//
// The loop detects over the mask's dates. dates, when non-nil, is the
// column of b's rows each of them is gathered from (DetectPopulated);
// nil means mask.N == b.N and the identity.
func batchTiled(ctx context.Context, b *Batch, mask *series.BatchMask, dates []int, x *series.DesignMatrix, opt Options, lambda float64, cfg BatchConfig) ([]Result, error) {
	M, N := b.M, mask.N
	n := opt.History
	K := opt.K()
	T := cfg.tileWidth()
	out := make([]Result, M)
	plan := tile.NewPlan(mask, T)
	xh := historySlice(x, n)
	ctx, sp := obs.StartSpan(ctx, "kernel.tiles")
	sp.SetAttr("tiles", plan.Tiles)
	sp.SetAttr("tile_width", T)
	defer sp.End()
	var classes *maskClasses
	if plan.Tiles > 1 && opt.Solver == SolverGaussJordan {
		var err error
		if classes, err = newMaskClasses(ctx, mask, xh, opt, cfg); err != nil {
			return nil, err
		}
		sp.SetAttr("mask_classes", classes.classes)
		sp.SetAttr("shared_pixels", classes.pixels)
	}
	var tilesShared atomic.Int64
	err := forEachTileScratch(ctx, scratchKey{K, N, T}, plan.Tiles, cfg.Workers, func(s *tileScratch, ti int) {
		idx := plan.Indices(ti)
		if !initTileResults(idx, mask, opt, s.fit, out) {
			return
		}
		var shared *maskClasses
		if classes != nil && classes.covers(idx, s.fit) {
			shared = classes
			tilesShared.Add(1)
		}
		t0 := time.Now()
		s.data.MapDates(dates, b.N) // every tile: the scratch is pooled across calls
		s.data.Gather(b.Y, mask, idx)
		s.sc.Build(s.data)
		if shared == nil {
			tile.CrossProduct(xh, s.data, s.sc, s.nrm)
		}
		tile.MatVecHistory(xh, s.data, s.sc, s.rhs)
		t1 := time.Now()
		solveTile(s, K, opt, shared, idx, out)
		publishBeta(s, K, idx, out)
		t2 := time.Now()
		tile.Residuals(x, s.data, s.sc, s.beta, s.rbuf, s.ix, s.nVal)
		t3 := time.Now()
		monitorTile(s, n, N, opt, lambda, idx, out)
		// One tile is one steal unit: four atomic adds per tile.
		statCrossNs.Add(int64(t1.Sub(t0)))
		statInvertNs.Add(int64(t2.Sub(t1)))
		statResidualNs.Add(int64(t3.Sub(t2)))
		statMosumNs.Add(sinceNs(t3))
	})
	if err != nil {
		return nil, err
	}
	sp.SetAttr("tiles_shared", int(tilesShared.Load()))
	return out, nil
}
