// Package core implements the BFAST-Monitor change-detection algorithm of
// Gieseke et al. (ICDE 2020): per-pixel harmonic season-trend regression on
// a stable history period followed by MOSUM structural-break monitoring,
// for time series with missing values (Alg. 1 / Fig. 12 of the paper).
//
// Two execution paths are provided:
//
//   - Detect: a scalar per-pixel reference implementation of Alg. 1, used
//     as ground truth by every other implementation in this repository.
//   - DetectBatch: the batched, kernel-decomposed implementation that
//     mirrors the paper's GPU strategy (one padded kernel per group of
//     same-inner-size operations, ker 1–10 of Fig. 12), parallelized over
//     host cores.
package core

import (
	"errors"
	"fmt"
	"math"

	"bfast/internal/linalg"
	"bfast/internal/series"
	"bfast/internal/stats"
)

// Solver selects the linear-system method used to fit the history model.
type Solver int

const (
	// SolverGaussJordan uses the paper's pivot-free Gauss-Jordan inversion
	// (Fig. 5) — the exact GPU-kernel semantics.
	SolverGaussJordan Solver = iota
	// SolverPivot uses partially-pivoted Gauss-Jordan inversion; more
	// robust for ill-conditioned pixels.
	SolverPivot
	// SolverCholesky solves the normal equations by Cholesky decomposition
	// without forming the inverse; the numerically preferred library path.
	SolverCholesky
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	switch s {
	case SolverGaussJordan:
		return "gauss-jordan"
	case SolverPivot:
		return "pivot"
	case SolverCholesky:
		return "cholesky"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Solve computes β from the K×K normal matrix a and the right-hand side
// rhs with the solver s, on the caller's workspace, and reports false
// when a is singular under s's contract (DESIGN.md §5). It is the only
// place the host chooses between the solvers; beta must not alias rhs.
func (s Solver) Solve(ws *linalg.Workspace, a, rhs, beta []float64) bool {
	switch s {
	case SolverCholesky:
		return ws.SolveSPD(a, rhs, beta)
	case SolverPivot:
		return ws.SolvePivot(a, rhs, beta)
	default: // SolverGaussJordan — the paper's kernel semantics.
		return ws.SolveGaussJordan(a, rhs, beta)
	}
}

// Options configures a BFAST-Monitor run. The zero value is not valid;
// construct with DefaultOptions and override fields as needed.
type Options struct {
	// History is n: the number of dates (including missing ones) that form
	// the stable history period. Monitoring starts at date index History.
	History int
	// Harmonics is k, the number of harmonic (season) terms. K = 2k+2.
	Harmonics int
	// Frequency is f, the number of observations per season cycle
	// (e.g. 23 for 16-day Landsat composites, 365 for daily data).
	Frequency float64
	// HFrac is hf, the MOSUM window as a fraction of the *valid* history
	// length: h = floor(hf · n̄). Typical values: 0.25, 0.5, 1.0.
	HFrac float64
	// Level is the monitoring significance level used to look up the
	// boundary scale λ when Lambda is zero. Supported: 0.20/0.10/0.05/0.01.
	Level float64
	// Lambda, when non-zero, sets the boundary scale directly and
	// overrides Level.
	Lambda float64
	// Boundary selects the boundary functional b_t (MOSUM only).
	Boundary stats.BoundaryKind
	// Process selects the monitored fluctuation process: the paper's
	// MOSUM (default) or cumulative sums (OLS-CUSUM).
	Process stats.ProcessKind
	// Sigma selects the σ̂ estimator.
	Sigma stats.SigmaKind
	// Solver selects the model-fitting method.
	Solver Solver
	// MinValidHistory is the minimum n̄ required to fit a model; values
	// below K are raised to K (the regression would be underdetermined).
	MinValidHistory int
	// NoTrend drops the linear-trend regressor (bfastmonitor's
	// `response ~ harmon` formula); K becomes 2k+1. Season-only models
	// are preferred for short or trend-free histories.
	NoTrend bool
}

// DefaultOptions returns the defaults used by the R bfastmonitor interface:
// k = 3 harmonics (K = 8, the paper's benchmark configuration), 16-day
// frequency, hf = 0.25, 5% monitoring level, Fig. 12 σ̂ and boundary.
func DefaultOptions(history int) Options {
	return Options{
		History:         history,
		Harmonics:       3,
		Frequency:       23,
		HFrac:           0.25,
		Level:           0.05,
		Boundary:        stats.BoundaryPaper,
		Sigma:           stats.SigmaFig12,
		Solver:          SolverGaussJordan,
		MinValidHistory: 0,
	}
}

// K returns the number of regression coefficients: 2k+2, or 2k+1 when the
// trend term is dropped.
func (o Options) K() int {
	k := 2*o.Harmonics + 1
	if !o.NoTrend {
		k++
	}
	return k
}

// ResolveLambda returns the boundary scale: Lambda if set, otherwise the
// critical value for (HFrac, Level) from the embedded table.
func (o Options) ResolveLambda() (float64, error) {
	if o.Lambda > 0 {
		return o.Lambda, nil
	}
	if o.Process == stats.ProcessCUSUM {
		return stats.CriticalValueCUSUM(o.Level)
	}
	return stats.CriticalValue(o.Boundary, o.HFrac, o.Level)
}

// Validate checks the option set against a series length N and returns a
// descriptive error for the first violated constraint.
func (o Options) Validate(n int) error {
	if o.History <= 0 {
		return errors.New("core: History must be positive")
	}
	if n > 0 && o.History >= n {
		return fmt.Errorf("core: History %d leaves no monitoring period (N=%d)", o.History, n)
	}
	if o.Harmonics < 0 {
		return errors.New("core: Harmonics must be non-negative")
	}
	// NaN slips past every ordered check below (each comparison with NaN
	// is false), and so does +Inf past the Frequency one: a non-finite
	// Frequency makes every pixel singular, a NaN HFrac every pixel
	// no-variance, a NaN Lambda poisons the boundary test — exactly the
	// class of bug nanguard exists to catch.
	if math.IsNaN(o.Frequency) || math.IsInf(o.Frequency, 0) {
		return fmt.Errorf("core: Frequency must be finite, got %g", o.Frequency)
	}
	if o.Frequency <= 0 {
		return errors.New("core: Frequency must be positive")
	}
	if math.IsNaN(o.HFrac) {
		return errors.New("core: HFrac must not be NaN")
	}
	if o.HFrac <= 0 || o.HFrac > 1 {
		return fmt.Errorf("core: HFrac must be in (0,1], got %g", o.HFrac)
	}
	if math.IsNaN(o.Lambda) {
		return errors.New("core: Lambda must not be NaN")
	}
	if o.Lambda < 0 {
		return errors.New("core: Lambda must be non-negative")
	}
	// Zero is the documented "resolve from the critical-value table"
	// sentinel, set exactly, never computed.
	//lint:allow nanguard -- exact zero-value config sentinel; NaN rejected above
	if o.Lambda == 0 {
		if _, err := o.ResolveLambda(); err != nil {
			return err
		}
	}
	switch o.Solver {
	case SolverGaussJordan, SolverPivot, SolverCholesky:
	default:
		return fmt.Errorf("core: unknown solver %d", int(o.Solver))
	}
	return nil
}

// minHist returns the effective minimum valid-history requirement.
func (o Options) minHist() int {
	m := o.MinValidHistory
	if k := o.K(); m < k {
		m = k
	}
	return m
}

// window returns the MOSUM window length h = ⌊hf·n̄⌋ for n̄ valid history
// observations, or 0 for CUSUM, which keeps no window.
func (o Options) window(nBar int) int {
	if o.Process == stats.ProcessCUSUM {
		return 0
	}
	return int(float64(nBar) * o.HFrac)
}

// DesignFor builds the design matrix implied by the options for a series
// of length n — Eq. (3) with or without the trend row.
func DesignFor(o Options, n int) (*series.DesignMatrix, error) {
	if o.NoTrend {
		return series.MakeDesignTrendless(n, o.Harmonics, o.Frequency)
	}
	return series.MakeDesign(n, o.Harmonics, o.Frequency)
}
