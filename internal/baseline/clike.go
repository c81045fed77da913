// Package baseline provides the two reference implementations the paper
// compares against:
//
//   - CLike: a hand-optimized parallel CPU implementation mirroring the
//     paper's OpenMP C baseline (§IV-C): one fused pass per pixel, all
//     scratch memory reused per worker thread to maximize cache locality,
//     no allocations in the hot loop. It is the measured comparator of
//     the Fig. 8 and §V-B speed-up experiments and of the benchmark's
//     cube probe; no production path runs it (those run
//     core.DetectBatch's tiled loop).
//
//   - RLike: a deliberately R-style implementation that mirrors how the
//     reference bfastmonitor code evaluates — materializing the filtered
//     data matrix for every pixel and going through generic
//     matrix-algebra routines with fresh allocations everywhere. It
//     reproduces the reference semantics (bit-identical results) and its
//     allocation-bound performance character; the additional constant
//     factor of the R interpreter itself is *not* simulated (see
//     EXPERIMENTS.md).
//
// Both produce results identical to internal/core's reference Detect.
// Both fit β through the detector's own core.Solver.Solve: what sets
// them apart is how the data moves, not a private copy of the solve.
package baseline

import (
	"context"

	"bfast/internal/core"
	"bfast/internal/linalg"
	"bfast/internal/sched"
	"bfast/internal/series"
)

// CLike runs BFAST-Monitor over the batch with the optimized fused CPU
// implementation using the given number of workers (0 = GOMAXPROCS).
// Results are bit-identical to core.Detect on every pixel. As a
// comparator it writes no obs metrics, so the production kernel.*
// families count only the detector's work.
//
// Execution: each pixel's validity bitset is computed once for the
// batch; the fused per-pixel pass then walks the bitset-derived valid
// index list instead of re-testing every element with math.IsNaN in the
// K(K+1)/2 normal-matrix loops. Pixels are dispatched block-cyclically
// on the shared work-stealing scheduler with per-worker scratch, so
// NaN-skewed scenes cannot strand a worker with an oversized chunk.
//
// Cancellation: ctx is checked before every steal unit; a cancelled
// context abandons the remaining pixel blocks and CLike returns
// ctx.Err().
func CLike(ctx context.Context, b *core.Batch, opt core.Options, workers int) ([]core.Result, error) {
	if err := opt.Validate(b.N); err != nil {
		return nil, err
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return nil, err
	}
	x, err := core.DesignFor(opt, b.N)
	if err != nil {
		return nil, err
	}
	out := make([]core.Result, b.M)
	if b.M == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	mask, err := b.MaskCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	err = sched.ForEachScratchCtx(ctx, sched.Shared(), b.M, workers, sched.DefaultGrain,
		func() *scratch { return newScratch(opt.K(), b.N) },
		func(s *scratch, lo, hi int) {
			for i := lo; i < hi; i++ {
				detectScratchMasked(b.Row(i), mask.Row(i), x, opt, lambda, s, &out[i])
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scratch holds all per-pixel working memory for one worker.
type scratch struct {
	normal []float64 // K×K normal matrix
	rhs    []float64 // K right-hand side
	beta   []float64 // K coefficients
	ws     linalg.Workspace
	rBar   []float64 // compacted residuals (length N)
	iBar   []int     // original indices (length N)
}

func newScratch(k, n int) *scratch {
	return &scratch{
		normal: make([]float64, k*k),
		rhs:    make([]float64, k),
		beta:   make([]float64, k),
		rBar:   make([]float64, n),
		iBar:   make([]int, n),
	}
}

// detectScratchMasked is the bitset-driven fused per-pixel pass. The
// valid-date index list is rebuilt once per pixel from the precomputed
// validity words (word-granular, dense on all-valid words) into the
// iBar scratch; the normal-matrix, right-hand-side and residual loops
// then gather through it with no data-dependent branches. Valid dates
// are accumulated in increasing order, as core.Detect's masked kernels
// do, so the two agree bit for bit.
func detectScratchMasked(y []float64, words []uint64, x *series.DesignMatrix, opt core.Options, lambda float64, s *scratch, res *core.Result) {
	n := opt.History
	K := opt.K()
	N := x.N

	// Valid counts from the bitset (Alg. 1 line 1 via popcount).
	nBar := series.CountBits(words, n)
	nVal := series.CountBits(words, N)
	*res = core.Result{Status: core.StatusOK, BreakIndex: -1, ValidHistory: nBar, Valid: nVal}
	minHist := opt.MinValidHistory
	if minHist < K {
		minHist = K
	}
	if nBar < minHist {
		res.Status = core.StatusInsufficientHistory
		return
	}

	// Valid index list, once per pixel; its first nBar entries are the
	// valid history dates.
	idx := series.AppendValidIndices(s.iBar[:0], words, N)

	// Normal matrix and right-hand side, gathered through the index list
	// (same accumulation order as the element-wise masked kernels).
	hist := idx[:nBar]
	for j1 := 0; j1 < K; j1++ {
		r1 := x.Data[j1*N : j1*N+n]
		for j2 := j1; j2 < K; j2++ {
			r2 := x.Data[j2*N : j2*N+n]
			var acc float64
			for _, q := range hist {
				acc += r1[q] * r2[q]
			}
			s.normal[j1*K+j2] = acc
			s.normal[j2*K+j1] = acc
		}
	}
	for j := 0; j < K; j++ {
		row := x.Data[j*N : j*N+n]
		var acc float64
		for _, q := range hist {
			acc += row[q] * y[q]
		}
		s.rhs[j] = acc
	}

	if !opt.Solver.Solve(&s.ws, s.normal, s.rhs, s.beta) {
		res.Status = core.StatusSingular
		return
	}
	res.Beta = append([]float64(nil), s.beta...)

	// Residuals on valid observations, compacted through the index list.
	for w, t := range idx {
		var pred float64
		for j := 0; j < K; j++ {
			pred += x.Data[j*N+t] * s.beta[j]
		}
		s.rBar[w] = y[t] - pred
	}
	nMon := nVal - nBar
	mo := core.MonitorSeries(s.rBar[:nVal], nBar, nMon, opt, lambda)
	res.Status = mo.Status
	res.Sigma = mo.Sigma
	res.MosumMean = mo.Mean
	if mo.Break >= 0 {
		orig := idx[nBar+mo.Break]
		if orig >= n {
			res.BreakIndex = orig - n
		}
	}
}
