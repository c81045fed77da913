// Package stats implements the statistical machinery of BFAST-Monitor:
// MOSUM boundary functions, the critical-value table that maps a monitoring
// significance level and window fraction to the boundary scale λ, and the
// residual-variance estimators σ̂.
package stats

import (
	"fmt"
	"math"
)

// LogPlus computes log⁺(x) = max(1, ln x) for x > 0 and 1 for x ≤ 0.
// This is the log⁺ of the structural-change monitoring literature
// (Zeileis et al. 2010): the boundary stays flat at λ until t/n exceeds e.
func LogPlus(x float64) float64 {
	if x <= math.E {
		return 1
	}
	return math.Log(x)
}

// BoundaryKind selects the MOSUM boundary functional b_t.
type BoundaryKind int

const (
	// BoundaryPaper is Fig. 12 of the paper: b_t = λ·sqrt(log⁺(t/n̄)),
	// with t the 0-based monitoring offset and n̄ the valid history length.
	BoundaryPaper BoundaryKind = iota
	// BoundaryStrucchange is the strucchange/bfastmonitor boundary
	// b_t = λ·sqrt(log⁺((n̄+t)/n̄)): the argument is the relative monitoring
	// time (n̄+t)/n̄ ≥ 1, which is what the R reference implementation uses.
	BoundaryStrucchange
)

// String implements fmt.Stringer.
func (k BoundaryKind) String() string {
	switch k {
	case BoundaryPaper:
		return "paper"
	case BoundaryStrucchange:
		return "strucchange"
	default:
		return fmt.Sprintf("BoundaryKind(%d)", int(k))
	}
}

// Boundary returns b_t for monitoring offset t (0-based), valid history
// length n, scale λ and the chosen functional. n must be positive.
func Boundary(kind BoundaryKind, lambda float64, t, n int) float64 {
	if n <= 0 {
		panic("stats: Boundary requires n > 0")
	}
	switch kind {
	case BoundaryPaper:
		return lambda * math.Sqrt(LogPlus(float64(t)/float64(n)))
	case BoundaryStrucchange:
		return lambda * math.Sqrt(LogPlus(float64(n+t)/float64(n)))
	default:
		panic(fmt.Sprintf("stats: unknown boundary kind %d", int(kind)))
	}
}

// critRow is one row of the MOSUM monitoring critical-value table:
// the boundary scale λ for a given boundary functional, window fraction h
// and significance level. The values were computed with
// SimulateCriticalValues (N = 250, period = 2, 60000 replications, seed
// 12345, k = 3 harmonics, f = 23) — a Monte Carlo replay of the complete
// monitoring procedure, including the history-fit estimation error, in the
// spirit of the simulated tables shipped with the R package strucchange.
// Period 2 matches the geometry of the paper's datasets (N = 2n) and of
// typical BFAST deployments (monitoring much shorter than history); for a
// longer relative monitoring horizon recompute λ with
// SimulateCriticalValues — trend-extrapolation error grows quickly with
// the horizon. At period 2 both boundary shapes are still in their flat
// log⁺ region, so the two kinds share one table. cmd/bfast-critval
// regenerates the table.
type critRow struct {
	h      float64
	levels map[float64]float64
}

var critTable = []critRow{
	{h: 0.25, levels: map[float64]float64{0.20: 2.1514, 0.10: 2.5731, 0.05: 2.9459, 0.01: 3.7068}},
	{h: 0.50, levels: map[float64]float64{0.20: 3.3484, 0.10: 4.1442, 0.05: 4.8655, 0.01: 6.3009}},
	{h: 1.00, levels: map[float64]float64{0.20: 4.9183, 0.10: 6.2845, 0.05: 7.5024, 0.01: 9.8462}},
}

// CriticalValue returns the boundary scale λ for the MOSUM monitoring
// process with the given boundary functional, window fraction
// h ∈ {0.25, 0.5, 1.0} and significance level ∈ {0.20, 0.10, 0.05, 0.01}.
// Other combinations return an error; callers can either supply λ
// explicitly or compute it with SimulateCriticalValues. The kind argument
// is accepted for interface stability; at the tabulated period-2 horizon
// both boundary shapes share the same λ (see critTable).
func CriticalValue(kind BoundaryKind, h, level float64) (float64, error) {
	const tol = 1e-9
	_ = kind
	for _, row := range critTable {
		if math.Abs(row.h-h) > tol {
			continue
		}
		for lv, lam := range row.levels {
			if math.Abs(lv-level) <= tol {
				return lam, nil
			}
		}
		return 0, fmt.Errorf("stats: no critical value for level %g (h=%g); supported levels: 0.20, 0.10, 0.05, 0.01", level, h)
	}
	return 0, fmt.Errorf("stats: no critical value for window fraction h=%g; supported: 0.25, 0.5, 1.0", h)
}

// SigmaKind selects the residual standard-deviation estimator σ̂ used to
// normalize the MOSUM process.
type SigmaKind int

const (
	// SigmaFig12 is the estimator the paper implements (Fig. 12, ker 8):
	// σ̂ = sqrt(Σ_{i<n̄} r̄ᵢ² / (n̄ − K)), i.e. residual variance with the
	// regression degrees of freedom removed.
	SigmaFig12 SigmaKind = iota
	// SigmaSection2 is the formula printed in §II-A of the paper:
	// σ̂ = sqrt(Σ rᵢ² / ((n−2)·(k+1))). It disagrees with Fig. 12 and with
	// the R implementation; it is provided for completeness/ablation.
	SigmaSection2
)

// String implements fmt.Stringer.
func (k SigmaKind) String() string {
	switch k {
	case SigmaFig12:
		return "fig12"
	case SigmaSection2:
		return "section2"
	default:
		return fmt.Sprintf("SigmaKind(%d)", int(k))
	}
}

// Sigma computes σ̂ from the history residuals. nValid is n̄ (the number of
// valid history observations = len(histResiduals)), K the number of model
// coefficients, and harmonics the paper's k (only used by SigmaSection2).
// It returns 0 when the degrees of freedom are non-positive; callers treat
// that as an unfittable pixel.
func Sigma(kind SigmaKind, histResiduals []float64, K, harmonics int) float64 {
	n := len(histResiduals)
	var ss float64
	for _, r := range histResiduals {
		ss += r * r
	}
	var dof float64
	switch kind {
	case SigmaFig12:
		dof = float64(n - K)
	case SigmaSection2:
		dof = float64((n - 2) * (harmonics + 1))
	default:
		panic(fmt.Sprintf("stats: unknown sigma kind %d", int(kind)))
	}
	if dof <= 0 {
		return 0
	}
	return math.Sqrt(ss / dof)
}
