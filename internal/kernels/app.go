package kernels

import (
	"fmt"
	"math"
	"time"

	"bfast/internal/core"
	"bfast/internal/gpusim"
	"bfast/internal/stats"
)

// Strategy names the code versions evaluated in Fig. 8 of the paper:
// ways to organise the computation on a GPU. SimulateApp models all
// three. The host has one batch detector (core.DetectBatch, the tiled
// loop), so no host call takes a Strategy.
type Strategy int

const (
	// StrategyOurs is the paper's winning strategy: the computation is
	// decomposed into batched kernels of same inner-parallel size
	// (ker 1–10 of Fig. 12).
	StrategyOurs Strategy = iota
	// StrategyRgTlEfSeq stages the matrix-multiplication-like kernels
	// (normal matrix, inversion, β) across a group of pixels but runs the
	// rest of the per-pixel computation fused ("RgTl-EfSeq" in Fig. 8).
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

// AppResult is the output of one simulated whole-application execution
// (the bfast entry point of Fig. 12) over a pixel batch.
type AppResult struct {
	// Breaks[i] is the 0-based offset of pixel i's first break within the
	// original monitoring period, or -1 (no break / unfittable pixel).
	Breaks []int
	// Means[i] is the MOSUM mean (NaN for unfittable pixels).
	Means []float32
	// Fittable[i] reports whether a model could be fitted for pixel i.
	Fittable []bool
	// Runs are the modeled kernel executions, in launch order.
	Runs []gpusim.KernelRun
	// KernelTime is the summed modeled device time of Runs.
	KernelTime time.Duration
}

// SimulateApp executes the complete BFAST-Monitor application in float32
// under the given execution strategy and models its kernel times on dev's
// profile. The three strategies (§III-B, Fig. 8) compute identical results
// but generate very different device traffic:
//
//   - StrategyOurs: transpose + register-tiled mmMulFilt +
//     shared-memory inversion + one padded batched kernel per group
//     (ker 4–10 of Fig. 12), intermediates staged in shared memory.
//   - StrategyRgTlEfSeq: the matrix-multiplication-like kernels are
//     tiled as above, but inversion and monitoring are fused into one
//     thread per pixel ("efficient sequentialization"): per-thread arrays
//     spill to device memory and divergent loop counts pad to the warp
//     maximum.
//   - StrategyFullEfSeq: everything fused into one kernel, including
//     the normal-matrix accumulation, whose K×K accumulator no longer fits
//     in registers and spills.
//
// sampleM, when positive and smaller than b.M, executes the simulation on
// a strided sub-batch of ≈sampleM pixels and scales the counters to the
// full batch — the returned Breaks/Means then cover only the sub-batch.
func SimulateApp(dev *gpusim.Device, b *Batch32, opt core.Options, strategy Strategy, sampleM int) (*AppResult, error) {
	if err := opt.Validate(b.N); err != nil {
		return nil, err
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return nil, err
	}
	x64, err := core.DesignFor(opt, b.N)
	if err != nil {
		return nil, err
	}
	x := Design32From(x64)
	sample, scale := b.Sample(sampleM)

	switch strategy {
	case StrategyOurs, StrategyRgTlEfSeq, StrategyFullEfSeq:
	default:
		return nil, fmt.Errorf("kernels: unknown strategy %d", int(strategy))
	}

	res := &AppResult{
		Breaks:   make([]int, sample.M),
		Means:    make([]float32, sample.M),
		Fittable: make([]bool, sample.M),
	}
	startRun := len(dev.Runs)

	// --- Model fitting (ker 1–5) ---------------------------------------
	n := opt.History
	K := opt.K()
	var normal []float32
	switch strategy {
	case StrategyOurs, StrategyRgTlEfSeq:
		normal, _, err = BatchNormalMatrices(dev, MMRegisterTiled, x, sample, n, scale)
	case StrategyFullEfSeq:
		// Fused execution computes the same matrices; the traffic is
		// charged inside the fused-kernel model below.
		normal = make([]float32, sample.M*K*K)
		mmUntiledExec(x, sample, n, normal)
	}
	if err != nil {
		return nil, err
	}

	var inverses []float32
	if strategy == StrategyOurs {
		inverses, _, err = BatchInvert(dev, InvShared, normal, K, scale)
		if err != nil {
			return nil, err
		}
	} else {
		inverses = make([]float32, len(normal))
		sh := make([]float32, K*2*K)
		tmp := make([]float32, K*2*K)
		for i := 0; i < sample.M; i++ {
			invertOne(normal[i*K*K:(i+1)*K*K], inverses[i*K*K:(i+1)*K*K], sh, tmp, K)
		}
	}

	// --- Per-pixel monitoring (functional, ker 4–10 of Fig. 12) --------
	nBarArr := make([]int, sample.M)
	nValArr := make([]int, sample.M)
	runMonitoring(sample, x, inverses, opt, lambda, res, nBarArr, nValArr)

	// --- Charge the remaining kernels per strategy ---------------------
	hf := opt.HFrac
	switch strategy {
	case StrategyOurs:
		for _, ch := range chargeOursMonitoring(sample.M, sample.N, n, K, hf) {
			c := ch.c
			c.Scale(scale)
			dev.Record(ch.name, c)
		}
	case StrategyRgTlEfSeq:
		c := chargeFusedMonitoring(sample, K, n, false)
		c.Scale(scale)
		dev.RecordEff("fused/inv+monitor", c, seqBWPenalty)
	case StrategyFullEfSeq:
		c := chargeFusedMonitoring(sample, K, n, true)
		c.Scale(scale)
		dev.RecordEff("fused/full", c, seqBWPenalty)
	}

	res.Runs = append(res.Runs, dev.Runs[startRun:]...)
	for _, r := range res.Runs {
		res.KernelTime += r.Time
	}
	return res, nil
}

// seqBWPenalty is the achieved-bandwidth multiplier for fused one-thread-
// per-pixel kernels: a single sequential thread exposes far less
// memory-level parallelism than a cooperating block, so it sustains a
// smaller fraction of peak bandwidth.
const seqBWPenalty = 0.5

// runMonitoring executes ker 4–10 functionally in float32 for each pixel:
// β = X⁻¹·(X_h·y_h masked), ŷ, filtered residuals, σ̂, MOSUM, boundary
// test, index remap. It fills res and the per-pixel valid counts.
func runMonitoring(b *Batch32, x *Design32, inverses []float32, opt core.Options, lambda float64, res *AppResult, nBarArr, nValArr []int) {
	n := opt.History
	K := x.K
	N := b.N
	beta := make([]float32, K)
	rhs := make([]float32, K)
	rBar := make([]float32, N)
	iBar := make([]int, N)
	for i := 0; i < b.M; i++ {
		y := b.Row(i)
		res.Breaks[i] = -1
		res.Means[i] = nan32()

		// ker 8 prefix: n̄ (needed to decide fittability first).
		nBar := 0
		for t := 0; t < n; t++ {
			if !isNaN32(y[t]) {
				nBar++
			}
		}
		nBarArr[i] = nBar
		nVal := nBar
		for t := n; t < N; t++ {
			if !isNaN32(y[t]) {
				nVal++
			}
		}
		nValArr[i] = nVal
		if nBar < K {
			continue
		}

		// ker 4: β₀ = X_h·y_h under the y mask (mvMulFilt). NaN·0 would
		// poison the sum, so NaN entries are skipped rather than
		// multiplied by the (1 − isnan) factor.
		for j := 0; j < K; j++ {
			var acc float32
			row := x.Data[j*N : j*N+n]
			for t := 0; t < n; t++ {
				v := y[t]
				if isNaN32(v) {
					continue
				}
				acc += row[t] * v
			}
			rhs[j] = acc
		}

		// ker 5: β = X^sqr⁻¹ · β₀.
		inv := inverses[i*K*K : (i+1)*K*K]
		ok := true
		for j := 0; j < K; j++ {
			var acc float32
			for p := 0; p < K; p++ {
				acc += inv[j*K+p] * rhs[p]
			}
			if isNaN32(acc) || math.IsInf(float64(acc), 0) {
				ok = false
			}
			beta[j] = acc
		}
		if !ok {
			continue
		}
		res.Fittable[i] = true

		// ker 6–7: prediction, residuals, NaN filter with keys.
		w := 0
		for t := 0; t < N; t++ {
			v := y[t]
			if isNaN32(v) {
				continue
			}
			var pred float32
			for j := 0; j < K; j++ {
				pred += x.Data[j*N+t] * beta[j]
			}
			rBar[w] = v - pred
			iBar[w] = t
			w++
		}
		nMon := nVal - nBar
		if nMon <= 0 {
			continue
		}

		// ker 8: σ̂ and window h.
		var ss float32
		for p := 0; p < nBar; p++ {
			ss += rBar[p] * rBar[p]
		}
		sigma := float32(math.Sqrt(float64(ss) / float64(nBar-K)))
		cusum := opt.Process == stats.ProcessCUSUM
		h := int(float32(nBar) * float32(opt.HFrac))
		if sigma <= 0 || (!cusum && (h < 1 || h > nBar)) {
			continue
		}

		// ker 9: first MOSUM window (skipped for the CUSUM process).
		var acc float32
		if !cusum {
			for p := 0; p < h; p++ {
				acc += rBar[p+nBar-h+1]
			}
		}

		// ker 10: advance the process, normalize, test, mean, remap.
		norm := 1 / (sigma * float32(math.Sqrt(float64(nBar))))
		var sum float32
		brk := -1
		for t := 0; t < nMon; t++ {
			if cusum {
				acc += rBar[nBar+t]
			} else if t > 0 {
				acc += rBar[nBar+t] - rBar[nBar-h+t]
			}
			m := acc * norm
			sum += m
			if brk < 0 {
				bnd := float32(stats.BoundaryFor(opt.Process, opt.Boundary, lambda, t, nBar))
				abs := m
				if abs < 0 {
					abs = -abs
				}
				if abs > bnd {
					brk = t
				}
			}
		}
		res.Means[i] = sum / float32(nMon)
		if brk >= 0 {
			orig := iBar[nBar+brk]
			if orig >= n {
				res.Breaks[i] = orig - n
			}
		}
	}
}

type namedCounters struct {
	name string
	c    gpusim.Counters
}

// chargeOursMonitoring models kernels 4–10 under the "Ours" strategy: one
// kernel per same-inner-size group (§III-B), a pixel per block, padded
// buffers (the loops run to n / N / N−n regardless of n̄), intermediates in
// shared memory, inter-kernel arrays in global memory with coalesced
// access.
func chargeOursMonitoring(M, N, n, K int, hf float64) []namedCounters {
	h := int(float64(n) * hf)
	if h < 1 {
		h = 1
	}
	mon := N - n
	logN := log2ceil(N)
	logn := log2ceil(n)
	mk := func(name string, coal, cached, shared, flops, barriers int) namedCounters {
		return namedCounters{name, gpusim.Counters{
			GlobalCoalesced: uint64(M * coal),
			GlobalCached:    uint64(M * cached),
			Shared:          uint64(M * shared),
			Flops:           uint64(M * flops),
			Blocks:          uint64(M),
			BarrierSteps:    uint64(M * barriers),
		}}
	}
	return []namedCounters{
		// ker 4: β₀ = mvMulFilt(X_h, y_h): y coalesced, X cache-served,
		// K tree reductions of n terms in shared memory.
		mk("ker4/mvMulFilt", n+K, n*K, 2*n, 3*n*K, 2+logn),
		// ker 5: β = X^sqr⁻¹·β₀ (K×K mat-vec).
		mk("ker5/mvMul", 2*K, K*K, 2*K, 2*K*K, 2),
		// ker 6: ŷ = Xᵀ·β over all N dates.
		mk("ker6/predict", N+K, N*K, 0, 2*N*K, 1),
		// ker 7: residual + filterNaNsWKeys (two scatter-producing scans).
		mk("ker7/filter", 4*N, 0, 4*N, 6*N, 2*logN),
		// ker 8: n̄, σ̂ (two map-reduce passes over the history).
		mk("ker8/sigma", 2*n, 0, 2*n, 3*n+4, 2+logn),
		// ker 9: first MOSUM window (map-reduce of h terms).
		mk("ker9/mosum-init", h, 0, h, h, 1+log2ceil(h)),
		// ker 10: MOSUM scan, boundary test, mean, first-break reduce.
		mk("ker10/mosum-scan", 2*mon+2, 0, 4*mon, 9*mon, 2*log2ceil(mon+1)),
	}
}

// chargeFusedMonitoring models the "efficiently sequentialized" fused
// kernel: one thread per pixel, flat 256-thread blocks. The Futhark
// sequentializer operates on padded per-pixel arrays (logical sizes vary
// per pixel, so warp divergence makes every lane pay the padded loop
// count anyway — footnote 4 of the paper), and the per-thread arrays —
// the prediction/residual buffers and the K×2K elimination buffer — far
// exceed the register budget and live in (coalesced) device memory. When
// full is true the normal-matrix accumulation is fused too: its scalar
// accumulator stays in a register, but y and the design rows are re-read
// for every (j₁,j₂) pair — the untiled-matmul traffic pattern, which is
// exactly the tiling gap Fig. 8 attributes 1.5–2× to.
func chargeFusedMonitoring(b *Batch32, K int, n int, full bool) gpusim.Counters {
	M, N := b.M, b.N
	var c gpusim.Counters
	c.Blocks = uint64((M + blockThreads - 1) / blockThreads)
	per := gpusim.Counters{}
	if full {
		// Fused mmMulFilt: y re-read per (j1,j2) pair (L2-served); the
		// two design rows form a tiny L1-resident working set charged
		// once per date each.
		per.GlobalCached += uint64(n*K*K + 2*n*K)
		per.GlobalCoalesced += uint64(n)
		per.Flops += uint64(4 * n * K * K)
	}
	// Gauss-Jordan on the spilled K×2K buffer: K steps × ~4 accesses per
	// element.
	per.GlobalCoalesced += uint64(8 * K * K * K)
	per.Flops += uint64(4 * K * K * K)
	// β₀ = mvMulFilt over the padded history, β = K×K mat-vec.
	per.GlobalCoalesced += uint64(n)
	per.GlobalCached += uint64(n*K + K*K)
	per.Flops += uint64(3*n*K + 2*K*K)
	// Prediction (ŷ spilled: write + re-read), residual filtering (read
	// y), filtered residuals spilled (write + three reads across σ̂,
	// MOSUM init and the two ends of the sliding window).
	per.GlobalCoalesced += uint64(3*N + 4*N)
	per.GlobalCached += uint64(N * K)
	per.Flops += uint64(2*N*K + 2*N)
	// σ̂, MOSUM, boundary, mean over padded sizes.
	per.Flops += uint64(3*n + 9*(N-n) + 16)
	per.Scale(float64(M))
	c.Add(per)
	return c
}

func log2ceil(v int) int {
	if v <= 1 {
		return 1
	}
	l := 0
	n := 1
	for n < v {
		n *= 2
		l++
	}
	return l
}
