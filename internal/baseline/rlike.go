package baseline

import (
	"math"

	"bfast/internal/core"
	"bfast/internal/linalg"
	"bfast/internal/series"
	"bfast/internal/stats"
)

// RLike runs BFAST-Monitor over the batch the way the reference R
// implementation evaluates it: strictly sequential over pixels, and for
// every pixel the filtered data matrix X̄ and target vector ȳ are
// materialized as fresh allocations before generic matrix routines are
// applied (this is what `bfastmonitor` does via model.matrix/lm.fit).
// Results are identical to core.Detect; only the performance character
// differs — allocation- and copy-bound, no fusion, no parallelism.
func RLike(b *core.Batch, opt core.Options) ([]core.Result, error) {
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
	for i := 0; i < b.M; i++ {
		out[i] = rlikePixel(b.Row(i), x, opt, lambda)
	}
	return out, nil
}

func rlikePixel(y []float64, x *series.DesignMatrix, opt core.Options, lambda float64) core.Result {
	n := opt.History
	K := opt.K()

	// Materialize the filtered series and data matrix (fresh allocations,
	// like the R code's na.omit + model.matrix).
	f := series.FilterMissing(y, n)
	res := core.Result{
		Status:       core.StatusOK,
		BreakIndex:   -1,
		ValidHistory: f.NValidHist,
		Valid:        f.NValid,
	}
	minHist := opt.MinValidHistory
	if minHist < K {
		minHist = K
	}
	if f.NValidHist < minHist {
		res.Status = core.StatusInsufficientHistory
		return res
	}

	nBar := f.NValidHist
	xBarHist := linalg.NewMatrix(K, nBar)
	yBarHist := make([]float64, nBar)
	for p := 0; p < nBar; p++ {
		t := f.Index[p]
		for j := 0; j < K; j++ {
			xBarHist.Set(j, p, x.At(j, t))
		}
		yBarHist[p] = f.Values[p]
	}

	// lm.fit: normal equations on the materialized history.
	normal := linalg.MatMul(xBarHist, xBarHist.Transpose())
	rhs := linalg.MatVec(xBarHist, yBarHist)
	beta := make([]float64, K)
	if !opt.Solver.Solve(new(linalg.Workspace), normal.Data, rhs, beta) {
		res.Status = core.StatusSingular
		return res
	}
	res.Beta = beta

	// Predict over the full filtered series (fresh matrices again).
	xBar := linalg.NewMatrix(K, f.NValid)
	for p := 0; p < f.NValid; p++ {
		t := f.Index[p]
		for j := 0; j < K; j++ {
			xBar.Set(j, p, x.At(j, t))
		}
	}
	pred := linalg.MatVec(xBar.Transpose(), beta)
	rBar := make([]float64, f.NValid)
	for p := range rBar {
		rBar[p] = f.Values[p] - pred[p]
	}

	nMon := f.NValid - nBar
	if nMon <= 0 {
		res.Status = core.StatusNoMonitoringData
		return res
	}
	sigma := stats.Sigma(opt.Sigma, rBar[:nBar], K, opt.Harmonics)
	res.Sigma = sigma
	h := int(float64(nBar) * opt.HFrac)
	if sigma <= 0 || (opt.Process != stats.ProcessCUSUM && (h < 1 || h > nBar)) {
		res.Status = core.StatusNoVariance
		return res
	}

	// The monitoring process, computed via fresh intermediate vectors
	// (the R code builds the whole process series before comparing).
	proc := make([]float64, nMon)
	if opt.Process == stats.ProcessCUSUM {
		var acc float64
		for t := 0; t < nMon; t++ {
			acc += rBar[nBar+t]
			proc[t] = acc
		}
	} else {
		var first float64
		for i := 0; i < h; i++ {
			first += rBar[i+nBar-h+1]
		}
		proc[0] = first
		for t := 1; t < nMon; t++ {
			proc[t] = proc[t-1] + (rBar[nBar+t] - rBar[nBar-h+t])
		}
	}
	norm := 1 / (sigma * math.Sqrt(float64(nBar)))
	bound := make([]float64, nMon)
	for t := range bound {
		bound[t] = stats.BoundaryFor(opt.Process, opt.Boundary, lambda, t, nBar)
	}
	var sum float64
	brk := -1
	for t := 0; t < nMon; t++ {
		m := proc[t] * norm
		sum += m
		if brk < 0 && math.Abs(m) > bound[t] {
			brk = t
		}
	}
	res.MosumMean = sum / float64(nMon)
	if brk >= 0 {
		res.BreakIndex = series.RemapIndex(f, brk, n)
	}
	return res
}
