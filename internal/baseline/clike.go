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
package baseline

import (
	"context"
	"math"
	"time"

	"bfast/internal/core"
	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/series"
)

// Baseline kernel metrics: the C-like fused pass accounts its whole
// per-pixel sweep under kernel.fused.ns (same convention as core's
// StrategyFullEfSeq), plus the pixels it processed.
var (
	statFusedNs      = obs.Default().Counter("kernel.fused.ns")
	statKernelPixels = obs.Default().Counter("kernel.pixels")
)

// CLike runs BFAST-Monitor over the batch with the optimized fused CPU
// implementation using the given number of workers (0 = GOMAXPROCS).
// Results are bit-identical to core.Detect on every pixel.
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
	statKernelPixels.Add(int64(b.M))
	err = sched.ForEachScratchCtx(ctx, sched.Shared(), b.M, workers, sched.DefaultGrain,
		func() *scratch { return newScratch(opt.K(), b.N) },
		func(s *scratch, lo, hi int) {
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				detectScratchMasked(b.Row(i), mask.Row(i), x, opt, lambda, s, &out[i])
			}
			statFusedNs.Add(int64(time.Since(t0)))
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scratch holds all per-pixel working memory for one worker.
type scratch struct {
	k       int
	normal  []float64 // K×K normal matrix
	sh      []float64 // K×2K Gauss-Jordan buffer
	tmp     []float64 // K×2K elimination double buffer
	inv     []float64 // K×K inverse
	rhs     []float64 // K right-hand side
	beta    []float64 // K coefficients
	rBar    []float64 // compacted residuals (length N)
	iBar    []int     // original indices (length N)
	cholL   []float64 // K×K Cholesky factor
	cholTmp []float64 // K intermediate
}

func newScratch(k, n int) *scratch {
	return &scratch{
		k:       k,
		normal:  make([]float64, k*k),
		sh:      make([]float64, k*2*k),
		tmp:     make([]float64, k*2*k),
		inv:     make([]float64, k*k),
		rhs:     make([]float64, k),
		beta:    make([]float64, k),
		rBar:    make([]float64, n),
		iBar:    make([]int, n),
		cholL:   make([]float64, k*k),
		cholTmp: make([]float64, k),
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

	if !s.solve(opt) {
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

// solve computes β from the scratch normal matrix and rhs with the
// configured solver, allocation-free. Returns false on singularity.
func (s *scratch) solve(opt core.Options) bool {
	switch opt.Solver {
	case core.SolverCholesky:
		return s.solveCholesky()
	case core.SolverPivot:
		if !s.invertPivot() {
			return false
		}
	default:
		if !s.invertGaussJordan() {
			return false
		}
	}
	K := s.k
	for j := 0; j < K; j++ {
		var acc float64
		for p := 0; p < K; p++ {
			acc += s.inv[j*K+p] * s.rhs[p]
		}
		s.beta[j] = acc
	}
	return true
}

// invertGaussJordan mirrors linalg.InvertGaussJordan on scratch buffers.
func (s *scratch) invertGaussJordan() bool {
	k := s.k
	w := 2 * k
	sh, tmp := s.sh, s.tmp
	for i := 0; i < k; i++ {
		for j := 0; j < w; j++ {
			switch {
			case j < k:
				sh[i*w+j] = s.normal[i*k+j]
			case j == k+i:
				sh[i*w+j] = 1
			default:
				sh[i*w+j] = 0
			}
		}
	}
	for q := 0; q < k; q++ {
		vq := sh[q]
		for k1 := 0; k1 < k; k1++ {
			for k2 := 0; k2 < w; k2++ {
				var t float64
				// Exact-zero pivot sentinel, same contract as
				// linalg.InvertGaussJordan: NaN pivots divide through
				// and are rejected by the singularity check.
				//lint:allow nanguard -- exact-zero pivot sentinel; NaN pivots propagate to the singularity check
				if vq == 0 {
					t = sh[k1*w+k2]
				} else {
					x := sh[k2] / vq
					if k1 == k-1 {
						t = x
					} else {
						t = sh[(k1+1)*w+k2] - sh[(k1+1)*w+q]*x
					}
				}
				tmp[k1*w+k2] = t
			}
		}
		sh, tmp = tmp, sh
	}
	ok := true
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			v := sh[i*w+j]
			if math.IsNaN(v) || math.Abs(v-want) > 1e-6 {
				ok = false
			}
			s.inv[i*k+j] = sh[i*w+k+j]
		}
	}
	if !ok {
		return false
	}
	for _, v := range s.inv {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// invertPivot mirrors linalg.InvertPivot on scratch buffers.
func (s *scratch) invertPivot() bool {
	k := s.k
	w := 2 * k
	sh := s.sh
	for i := 0; i < k; i++ {
		for j := 0; j < w; j++ {
			switch {
			case j < k:
				sh[i*w+j] = s.normal[i*k+j]
			case j == k+i:
				sh[i*w+j] = 1
			default:
				sh[i*w+j] = 0
			}
		}
	}
	for col := 0; col < k; col++ {
		piv, best := -1, 0.0
		for r := col; r < k; r++ {
			if v := math.Abs(sh[r*w+col]); v > best {
				best, piv = v, r
			}
		}
		//lint:allow nanguard -- best is math.Abs-folded and NaN is rejected explicitly in the same condition
		if piv < 0 || best == 0 || math.IsNaN(best) {
			return false
		}
		if piv != col {
			for j := 0; j < w; j++ {
				sh[col*w+j], sh[piv*w+j] = sh[piv*w+j], sh[col*w+j]
			}
		}
		inv := 1 / sh[col*w+col]
		for j := 0; j < w; j++ {
			sh[col*w+j] *= inv
		}
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := sh[r*w+col]
			//lint:allow nanguard -- exact-zero elimination skip; NaN factors take the eliminate path
			if f == 0 {
				continue
			}
			for j := 0; j < w; j++ {
				sh[r*w+j] -= f * sh[col*w+j]
			}
		}
	}
	for i := 0; i < k; i++ {
		copy(s.inv[i*k:(i+1)*k], sh[i*w+k:i*w+w])
	}
	for _, v := range s.inv {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// solveCholesky mirrors linalg.SolveSPD on scratch buffers, writing β.
func (s *scratch) solveCholesky() bool {
	k := s.k
	l := s.cholL
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			sum := s.normal[i*k+j]
			for p := 0; p < j; p++ {
				sum -= l[i*k+p] * l[j*k+p]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				l[i*k+i] = math.Sqrt(sum)
			} else {
				l[i*k+j] = sum / l[j*k+j]
			}
		}
	}
	yv := s.cholTmp
	for i := 0; i < k; i++ {
		sum := s.rhs[i]
		for p := 0; p < i; p++ {
			sum -= l[i*k+p] * yv[p]
		}
		yv[i] = sum / l[i*k+i]
	}
	for i := k - 1; i >= 0; i-- {
		sum := yv[i]
		for p := i + 1; p < k; p++ {
			sum -= l[p*k+i] * s.beta[p]
		}
		s.beta[i] = sum / l[i*k+i]
	}
	return true
}
