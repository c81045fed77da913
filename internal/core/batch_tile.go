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

// This file implements the pixel-tiled execution DetectBatch runs:
// pixels are binned by valid-count into tiles (internal/tile); each
// pixel of a tile is compacted straight from its batch row to its valid
// dates and values, its normal matrix is summed from the batch's table
// of design products over those dates (tile.Pairs), its right-hand side
// and residuals walk the same list, and the K×K normal systems of a tile
// are inverted together by the lane-interleaved batched Gauss-Jordan
// (linalg.GJBatch) — the CPU analogue of the paper's Fig. 5
// shared-memory inversion.
// One tile is one steal unit on the shared scheduler, and every stage of
// a tile runs inside it on per-worker scratch. Pixels that share their
// history mask share one inverse (maskclass.go). Results are
// bit-identical to scalar Detect.

// tileScratch is the per-worker working set of the tiled kernels: the
// lanes' compacted series and the lane-interleaved fit buffers.
type tileScratch struct {
	n    int       // dates per lane: the row stride of rbuf and ix
	nrm  []float64 // K×K×T lane-interleaved normal matrices
	rhs  []float64 // K×T right-hand sides
	inv  []float64 // K×K×T inverses
	beta []float64 // K×T coefficients
	lb   []float64 // one lane's coefficients, padded to tile.PadK(K)
	sing []bool    // per-lane singularity flags
	fit  []bool    // per-lane fittable flags
	gj   *linalg.GJBatch
	ws   linalg.Workspace // single-lane solves (non-GJ solvers)
	fm   []float64        // K×K single-lane normal matrix
	fr   []float64        // K single-lane right-hand side
	fb   []float64        // K single-lane coefficients
	rbuf []float64        // T×N lane-major compacted values, then residuals
	ix   []int32          // T×N their original date indices
	nVal []int            // per-lane valid counts
}

func newTileScratch(k, n int) *tileScratch {
	t := tile.DefaultWidth
	return &tileScratch{
		n:    n,
		nrm:  make([]float64, k*k*t),
		rhs:  make([]float64, k*t),
		inv:  make([]float64, k*k*t),
		beta: make([]float64, k*t),
		lb:   make([]float64, tile.PadK(k)),
		sing: make([]bool, t),
		fit:  make([]bool, t),
		gj:   linalg.NewGJBatch(k, t),
		fm:   make([]float64, k*k),
		fr:   make([]float64, k),
		fb:   make([]float64, k),
		rbuf: make([]float64, t*n),
		ix:   make([]int32, t*n),
		nVal: make([]int, t),
	}
}

// tileScratchPool holds released scratches of any shape, so a call —
// above all a 1–4-pixel serving request, whose scratch is most of what
// it would allocate — reuses the buffers of an earlier one.
// getTileScratch takes a pooled scratch built for the same K whose date
// buffers have the capacity for n dates, the rule the server's pack
// buffers follow, so the pool keeps no entry per shape a caller ever
// brought. Stale contents are harmless: a lane's compacted values and
// dates are written before any kernel reads them, and every kernel
// reads only its lane's own count of them; the fit buffers are written
// for the active lanes before they are read; no result is read from a
// padding lane; and the padding of lb past K is never written.
var tileScratchPool sync.Pool

func getTileScratch(k, n int) *tileScratch {
	s, _ := tileScratchPool.Get().(*tileScratch)
	if s == nil || s.gj.K != k || cap(s.rbuf) < tile.DefaultWidth*n {
		return newTileScratch(k, n)
	}
	s.n = n
	s.rbuf, s.ix = s.rbuf[:tile.DefaultWidth*n], s.ix[:tile.DefaultWidth*n]
	return s
}

// forEachTileScratch runs body over [0, tiles), one tile per steal unit
// on the shared scheduler, handing each worker a pooled tileScratch that
// goes back to the pool when the loop returns. Each scratch is sized for
// K regressors and series of n dates.
func forEachTileScratch(ctx context.Context, k, n, tiles, workers int, body func(s *tileScratch, ti int)) error {
	pool := sched.Shared()
	scratch := make([]*tileScratch, pool.Workers(workers, tiles))
	defer func() {
		for _, s := range scratch {
			if s != nil {
				tileScratchPool.Put(s)
			}
		}
	}()
	return pool.ForEachCtx(ctx, tiles, len(scratch), 1, func(id, lo, hi int) {
		if scratch[id] == nil {
			scratch[id] = getTileScratch(k, n)
		}
		for ti := lo; ti < hi; ti++ {
			body(scratch[id], ti)
		}
	})
}

// initTileResults fills the per-pixel counts and fittable flags for the
// tile's lanes, returning whether any lane can be fitted.
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
// skip the reduction; the pivoting/Cholesky library solvers extract each
// lane and solve it through Solver.Solve, the solve scalar Detect runs,
// so singularity behaviour matches it exactly. Lanes that fail are
// flagged StatusSingular.
func solveTile(s *tileScratch, k int, opt Options, shared *maskClasses, idx []int, out []Result) {
	t := tile.DefaultWidth
	cnt := len(idx)
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
		if !opt.Solver.Solve(&s.ws, s.fm, s.fr, s.fb) {
			out[px].Status = StatusSingular
			s.fit[p] = false
			continue
		}
		for j, v := range s.fb {
			s.beta[j*t+p] = v
		}
	}
}

// publishBeta copies each fitted lane's coefficients out of the
// interleaved buffer into the pixel's result, carved from one slab per
// tile.
func publishBeta(s *tileScratch, k int, idx []int, out []Result) {
	t := tile.DefaultWidth
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
// compacted residuals, lane by lane; bit-identical to scalar Detect.
func monitorTile(s *tileScratch, opt Options, lambda float64, idx []int, out []Result) {
	n, nDates := opt.History, s.n
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		res := &out[px]
		nBar := res.ValidHistory
		w := s.nVal[p]
		mo := MonitorSeries(s.rbuf[p*nDates:p*nDates+w], nBar, w-nBar, opt, lambda)
		res.Status = mo.Status
		res.Sigma = mo.Sigma
		res.MosumMean = mo.Mean
		if mo.Break >= 0 {
			if orig := int(s.ix[p*nDates+nBar+mo.Break]); orig >= n {
				res.BreakIndex = orig - n
			}
		}
	}
}

// tileFinish is batchTiled's last stage of a tile: monitorTile, or a
// closure over seedTile.
type tileFinish func(s *tileScratch, opt Options, lambda float64, idx []int, out []Result)

// seedTile seeds the monitor record of every fitted lane of a tile of
// history dates only, whose residuals are all history residuals: β from
// out, the MOSUM window carved from one slab per tile. A lane whose
// seeding fails keeps a zero record and takes the failing status.
func seedTile(s *tileScratch, opt Options, idx []int, out []Result, recs []MonitorState) {
	n := s.n
	total := 0
	for p := range idx {
		if s.fit[p] {
			total += opt.window(s.nVal[p])
		}
	}
	win := make([]float64, total)
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		h := opt.window(s.nVal[p])
		rec := MonitorState{Beta: out[px].Beta}
		if st := rec.seed(s.rbuf[p*n:p*n+s.nVal[p]], win[:h:h], opt); st != StatusOK {
			out[px].Status = st
		} else {
			recs[px] = rec
		}
		win = win[h:]
	}
}

// batchTiled is the tiled execution: per tile, every lane is compacted
// from its batch row (tile.Compact), the fit kernels run across the
// tile's lanes (normal matrices → right-hand sides → batched inversion →
// β) and the residual pass follows in place; finish then consumes the
// residuals — the monitoring phase (monitorTile) or the seeding of
// monitor records (seedTile) — all inside one steal unit with per-worker
// scratch. Tiles never touch shared intermediates, so the whole pixel's
// data stays in cache between stages.
//
// With the Gauss-Jordan solver and more than one tile, the batch is
// first grouped by history mask and every class of two or more pixels
// is inverted once (newMaskClasses). A tile whose fittable lanes all
// belong to such classes skips its own normal matrices and inversion;
// any other tile runs them for all its lanes, as a batch without
// repeated masks does throughout.
//
// The loop detects over the mask's dates, reading the design through
// pp, its tables over those dates with opt.History history dates. dates,
// when non-nil, is the column of b's rows each of them is read from
// (DetectPopulated); nil means mask.N == b.N and the identity.
func batchTiled(ctx context.Context, b *Batch, mask *series.BatchMask, dates []int, pp *tile.Pairs, opt Options, lambda float64, cfg BatchConfig, finish tileFinish) ([]Result, error) {
	M, N := b.M, mask.N
	K := opt.K()
	T := tile.DefaultWidth
	out := make([]Result, M)
	plan := tile.NewPlan(mask, T)
	ctx, sp := obs.StartSpan(ctx, "kernel.tiles")
	sp.SetAttr("tiles", int64(plan.Tiles))
	sp.SetAttr("tile_width", int64(T))
	defer sp.End()
	var classes *maskClasses
	if plan.Tiles > 1 && opt.Solver == SolverGaussJordan {
		var err error
		if classes, err = newMaskClasses(ctx, mask, pp, opt, cfg); err != nil {
			return nil, err
		}
		sp.SetAttr("mask_classes", int64(classes.classes))
		sp.SetAttr("shared_pixels", int64(classes.pixels))
	}
	var tilesShared atomic.Int64
	err := forEachTileScratch(ctx, K, N, plan.Tiles, cfg.Workers, func(s *tileScratch, ti int) {
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
		var hist [tile.DefaultWidth][]int32
		for p, px := range idx {
			r, ix := s.rbuf[p*N:(p+1)*N], s.ix[p*N:(p+1)*N]
			s.nVal[p] = tile.Compact(b.Row(px), dates, mask.Row(px), N, r, ix)
			hist[p] = ix[:out[px].ValidHistory]
		}
		if shared == nil {
			pp.Normals(hist[:len(idx)], T, s.nrm)
		}
		for p := range idx {
			pp.LaneMatVec(hist[p], s.rbuf[p*N:], p, T, s.rhs)
		}
		t1 := time.Now()
		solveTile(s, K, opt, shared, idx, out)
		publishBeta(s, K, idx, out)
		t2 := time.Now()
		for p, px := range idx {
			if s.fit[p] {
				copy(s.lb, out[px].Beta)
				pp.LaneResiduals(s.ix[p*N:p*N+s.nVal[p]], s.rbuf[p*N:], s.lb)
			}
		}
		t3 := time.Now()
		finish(s, opt, lambda, idx, out)
		// One tile is one steal unit: four atomic adds per tile.
		statCrossNs.Add(int64(t1.Sub(t0)))
		statInvertNs.Add(int64(t2.Sub(t1)))
		statResidualNs.Add(int64(t3.Sub(t2)))
		statMosumNs.Add(sinceNs(t3))
	})
	if err != nil {
		return nil, err
	}
	sp.SetAttr("tiles_shared", tilesShared.Load())
	return out, nil
}
