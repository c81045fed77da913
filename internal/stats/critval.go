package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bfast/internal/linalg"
)

// SimConfig configures the Monte Carlo computation of MOSUM monitoring
// critical values. The simulation replays the *full* monitoring procedure
// on pure-noise data: a season-trend regression (intercept, trend and
// Harmonics sin/cos pairs — K = 2·Harmonics+2 coefficients) is fitted by
// OLS on a history of N standard-normal observations, out-of-sample
// residuals are computed over a monitoring period of (Period−1)·N further
// observations, σ̂ is estimated from the history residuals with N−K degrees
// of freedom, and the normalized MOSUM process with window ⌊HFrac·N⌋ is
// maximized against the boundary shape. Replaying the estimation step
// matters: the out-of-sample drift of the fitted trend inflates the MOSUM
// process well beyond the iid-residual limit, and critical values that
// ignore it undercover badly.
//
// The statistic per replication is max_t |MO_t| / sqrt(log⁺(shape(t))),
// whose (1−level) empirical quantile is the boundary scale λ.
type SimConfig struct {
	// N is the history length used for the discretization (default 250).
	N int
	// Period is the ratio (history+monitoring)/history covered by the
	// monitoring period (default 10, the strucchange convention).
	Period float64
	// Reps is the number of Monte Carlo replications (default 20000).
	Reps int
	// Seed seeds the deterministic generator (default 1).
	Seed int64
	// Harmonics is the number of sin/cos pairs in the fitted model
	// (default 3, the paper's k; K = 2·Harmonics+2 = 8).
	Harmonics int
	// Frequency is the observations-per-cycle of the harmonic terms
	// (default 23, 16-day Landsat composites).
	Frequency float64
	// Process selects the monitored fluctuation process (default MOSUM).
	Process ProcessKind
}

func (c SimConfig) withDefaults() SimConfig {
	if c.N <= 0 {
		c.N = 250
	}
	if c.Period <= 1 {
		c.Period = 10
	}
	if c.Reps <= 0 {
		c.Reps = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Harmonics <= 0 {
		c.Harmonics = 3
	}
	if c.Frequency <= 0 {
		c.Frequency = 23
	}
	return c
}

// SimulateCriticalValues runs the Monte Carlo simulation and returns the λ
// for each requested significance level (same order). All levels share one
// simulation, so asking for several at once is cheap.
func SimulateCriticalValues(kind BoundaryKind, hFrac float64, levels []float64, cfg SimConfig) ([]float64, error) {
	if hFrac <= 0 || hFrac > 1 {
		return nil, fmt.Errorf("stats: hFrac must be in (0,1], got %g", hFrac)
	}
	for _, lv := range levels {
		if lv <= 0 || lv >= 1 {
			return nil, fmt.Errorf("stats: level must be in (0,1), got %g", lv)
		}
	}
	cfg = cfg.withDefaults()
	n := cfg.N
	h := int(float64(n) * hFrac)
	if h < 1 {
		return nil, fmt.Errorf("stats: window ⌊%g·%d⌋ is empty", hFrac, n)
	}
	cusum := cfg.Process == ProcessCUSUM
	nMon := int(float64(n) * (cfg.Period - 1))
	total := n + nMon
	K := 2*cfg.Harmonics + 2

	// Design matrix, row-major K×total: intercept, trend, sin/cos pairs.
	x := make([]float64, K*total)
	for t := 0; t < total; t++ {
		tt := float64(t + 1)
		x[0*total+t] = 1
		x[1*total+t] = tt
		for j := 1; j <= cfg.Harmonics; j++ {
			ang := 2 * math.Pi * float64(j) * tt / cfg.Frequency
			x[(2*j)*total+t] = math.Sin(ang)
			x[(2*j+1)*total+t] = math.Cos(ang)
		}
	}

	// Precompute the history normal matrix once: the design is shared
	// across replications.
	normal := make([]float64, K*K)
	for a := 0; a < K; a++ {
		for b := a; b < K; b++ {
			var s float64
			for t := 0; t < n; t++ {
				s += x[a*total+t] * x[b*total+t]
			}
			normal[a*K+b] = s
			normal[b*K+a] = s
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	maxima := make([]float64, cfg.Reps)
	y := make([]float64, total)
	rhs := make([]float64, K)
	beta := make([]float64, K)
	r := make([]float64, total)
	var ws linalg.Workspace
	for rep := 0; rep < cfg.Reps; rep++ {
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		// OLS on the history: β = (X_h X_hᵀ)⁻¹ X_h y_h.
		for a := 0; a < K; a++ {
			var s float64
			row := x[a*total : a*total+n]
			for t, v := range row {
				s += v * y[t]
			}
			rhs[a] = s
		}
		if !ws.SolveSPD(normal, rhs, beta) {
			return nil, errors.New("stats: design normal matrix not SPD")
		}
		// Residuals over the full span, σ̂ from history.
		var ss float64
		for t := 0; t < total; t++ {
			pred := 0.0
			for a := 0; a < K; a++ {
				pred += x[a*total+t] * beta[a]
			}
			r[t] = y[t] - pred
			if t < n {
				ss += r[t] * r[t]
			}
		}
		sigma := math.Sqrt(ss / float64(n-K))
		norm := 1 / (sigma * math.Sqrt(float64(n)))
		var maxStat float64
		if cusum {
			// Cumulative sums over the monitoring period against the
			// sqrt-time boundary shape.
			var acc float64
			for t := 0; t < nMon; t++ {
				acc += r[n+t]
				m := math.Abs(acc * norm)
				stat := m / math.Sqrt(float64(n+t)/float64(n))
				if stat > maxStat {
					maxStat = stat
				}
			}
		} else {
			// First window: the h residuals ending at the first monitoring
			// observation (Fig. 12 ker 9 semantics).
			var mosum float64
			for i := 0; i < h; i++ {
				mosum += r[i+n-h+1]
			}
			for t := 0; t < nMon; t++ {
				if t > 0 {
					mosum += r[n+t] - r[n-h+t]
				}
				m := math.Abs(mosum * norm)
				stat := m / boundaryShape(kind, t, n)
				if stat > maxStat {
					maxStat = stat
				}
			}
		}
		maxima[rep] = maxStat
	}
	sort.Float64s(maxima)
	out := make([]float64, len(levels))
	for i, lv := range levels {
		idx := int(math.Ceil(float64(cfg.Reps)*(1-lv))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= cfg.Reps {
			idx = cfg.Reps - 1
		}
		out[i] = maxima[idx]
	}
	return out, nil
}

// boundaryShape is the boundary functional with λ = 1.
func boundaryShape(kind BoundaryKind, t, n int) float64 {
	switch kind {
	case BoundaryStrucchange:
		return math.Sqrt(LogPlus(float64(n+t) / float64(n)))
	default:
		return math.Sqrt(LogPlus(float64(t) / float64(n)))
	}
}
