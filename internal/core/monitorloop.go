package core

import (
	"math"

	"bfast/internal/series"
	"bfast/internal/stats"
)

// monitorOutcome is the result of the monitoring phase for one pixel.
type monitorOutcome struct {
	status Status
	sigma  float64
	mean   float64
	brk    int // 0-based offset within the *filtered* monitoring period, -1 = none
}

// monitorSeries runs the monitoring phase (ker 8–10 of Fig. 12) on the
// compacted residuals rBar: σ̂ estimation, the configured fluctuation
// process (MOSUM with window ⌊hf·n̄⌋, or cumulative sums), the boundary
// test and the process mean. nBar is n̄ (history residual count), nMon the
// number of monitoring residuals; rBar must hold nBar+nMon values.
//
// Every offline host path (scalar Detect, the tiled DetectBatch, CLike)
// shares this single function, which is what guarantees their bit-for-bit
// agreement; the streaming MonitorState.Push runs the same recurrence one
// observation at a time.
func monitorSeries(rBar []float64, nBar, nMon int, opt Options, lambda float64) monitorOutcome {
	out := monitorOutcome{status: StatusOK, brk: -1}
	if nMon <= 0 {
		out.status = StatusNoMonitoringData
		return out
	}
	K := opt.K()
	sigma := stats.Sigma(opt.Sigma, rBar[:nBar], K, opt.Harmonics)
	out.sigma = sigma
	if sigma <= 0 {
		out.status = StatusNoVariance
		return out
	}
	cusum := opt.Process == stats.ProcessCUSUM
	h := 0
	var acc float64
	if !cusum {
		h = int(float64(nBar) * opt.HFrac)
		if h < 1 || h > nBar {
			out.status = StatusNoVariance
			return out
		}
		// First MOSUM window: the h residuals ending at the first
		// monitoring observation (Fig. 12 ker 9).
		for i := 0; i < h; i++ {
			acc += rBar[i+nBar-h+1]
		}
	}
	norm := 1 / (sigma * math.Sqrt(float64(nBar)))
	var sum float64
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
			b := stats.BoundaryFor(opt.Process, opt.Boundary, lambda, t, nBar)
			if math.Abs(m) > b {
				brk = t
			}
		}
	}
	out.mean = sum / float64(nMon)
	out.brk = brk
	return out
}

// MonitorOutcome is the exported result of the shared monitoring loop.
type MonitorOutcome struct {
	// Status reports whether monitoring succeeded.
	Status Status
	// Sigma is σ̂.
	Sigma float64
	// Mean is the fluctuation-process mean (the change magnitude).
	Mean float64
	// Break is the first-break offset within the filtered monitoring
	// period, or -1.
	Break int
}

// MonitorSeries exposes the shared monitoring loop (ker 8–10 of Fig. 12)
// to sibling packages so every implementation runs the exact same
// floating-point sequence. See monitorSeries for semantics.
func MonitorSeries(rBar []float64, nBar, nMon int, opt Options, lambda float64) MonitorOutcome {
	mo := monitorSeries(rBar, nBar, nMon, opt, lambda)
	return MonitorOutcome{Status: mo.status, Sigma: mo.sigma, Mean: mo.mean, Break: mo.brk}
}

// ProcessTrace holds the full fluctuation-process trajectory of one pixel
// — what Fig. 2 of the paper plots: the process against its significance
// envelope over the monitoring period.
type ProcessTrace struct {
	// Status reports whether the pixel could be processed.
	Status Status
	// Dates[i] is the original date index of monitoring observation i.
	Dates []int
	// Process[i] is the normalized process value at that observation.
	Process []float64
	// Boundary[i] is the significance envelope at that observation.
	Boundary []float64
	// BreakAt is the index into these slices of the first crossing, -1 if
	// none.
	BreakAt int
}

// Trace computes the full monitoring-process trajectory for one pixel —
// the per-pixel diagnostic plot of Fig. 2. Detect decides the status.
// For a processed pixel, FitMonitor's streaming record is then pushed
// every valid monitoring observation, and each Push's process value and
// boundary are recorded: the recurrence Detect monitors, bit for bit.
func Trace(y []float64, x *series.DesignMatrix, opt Options) (ProcessTrace, error) {
	res, err := Detect(y, x, opt)
	if err != nil {
		return ProcessTrace{}, err
	}
	tr := ProcessTrace{Status: res.Status, BreakAt: -1}
	if res.Status != StatusOK {
		return tr, nil
	}
	st, _, err := FitMonitor(y, x, opt)
	if err != nil {
		return ProcessTrace{}, err
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return ProcessTrace{}, err
	}
	nMon := res.Valid - res.ValidHistory
	tr.Dates = make([]int, 0, nMon)
	tr.Process = make([]float64, 0, nMon)
	tr.Boundary = make([]float64, 0, nMon)
	for t := opt.History; t < len(y); t++ {
		if math.IsNaN(y[t]) {
			continue
		}
		proc, bound := st.Push(x, t, y[t], opt, lambda)
		if tr.BreakAt < 0 && st.Break >= 0 {
			tr.BreakAt = len(tr.Process)
		}
		tr.Dates = append(tr.Dates, t)
		tr.Process = append(tr.Process, proc)
		tr.Boundary = append(tr.Boundary, bound)
	}
	return tr, nil
}
