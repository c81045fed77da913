package core

import (
	"fmt"

	"bfast/internal/linalg"
	"bfast/internal/series"
)

// Detect runs BFAST-Monitor (Alg. 1 of the paper) on a single pixel series.
// y has one entry per date (length N, NaN = missing), x is the shared K×N
// design matrix for the same date axis, and opt carries the parameters.
// This is the scalar reference implementation: every batched/kernel/baseline
// implementation in the repository is tested for equivalence against it.
func Detect(y []float64, x *series.DesignMatrix, opt Options) (Result, error) {
	if err := opt.Validate(len(y)); err != nil {
		return Result{}, err
	}
	if x.N != len(y) {
		return Result{}, fmt.Errorf("core: design matrix has %d dates but series has %d", x.N, len(y))
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return Result{}, err
	}
	return detectResolved(y, x, opt, lambda), nil
}

// detectResolved is Detect with options pre-validated and λ resolved.
func detectResolved(y []float64, x *series.DesignMatrix, opt Options, lambda float64) Result {
	n := opt.History
	K := opt.K()

	// Alg. 1 line 1: filter missing values, track original indices.
	f := series.FilterMissing(y, n)
	res := Result{
		Status:       StatusOK,
		BreakIndex:   -1,
		ValidHistory: f.NValidHist,
		Valid:        f.NValid,
	}
	if f.NValidHist < opt.minHist() {
		res.Status = StatusInsufficientHistory
		return res
	}

	// Alg. 1 lines 2-4: fit β on the valid history observations.
	// The masked cross product and masked matrix-vector product operate on
	// the *unfiltered* X and y, skipping NaN dates (the paper's mmMulFilt /
	// mvMulFilt trick that avoids materializing X̄ per pixel).
	xh := historySlice(x, n)
	var ws linalg.Workspace
	beta := make([]float64, K)
	if !opt.Solver.Solve(&ws, linalg.MaskedCrossProduct(xh, y[:n]).Data, linalg.MaskedMatVec(xh, y[:n]), beta) {
		res.Status = StatusSingular
		return res
	}
	res.Beta = beta

	// Alg. 1 line 5 (Fig. 12 convention): residuals r = y − ŷ on the
	// valid observations, compacted.
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

	// Fig. 12 ker 8-10: σ̂, the fluctuation process and the boundary test.
	mo := MonitorSeries(rBar, nBar, nMon, opt, lambda)
	res.Status = mo.Status
	res.Sigma = mo.Sigma
	res.MosumMean = mo.Mean
	if mo.Break >= 0 {
		res.BreakIndex = series.RemapIndex(f, mo.Break, n)
	}
	return res
}

// historySlice copies the first n columns of the design matrix into a
// K×n linalg matrix (the X_h operand of the fitting kernels).
func historySlice(x *series.DesignMatrix, n int) *linalg.Matrix {
	xh := linalg.NewMatrix(x.K, n)
	for j := 0; j < x.K; j++ {
		copy(xh.Data[j*n:(j+1)*n], x.Data[j*x.N:j*x.N+n])
	}
	return xh
}
