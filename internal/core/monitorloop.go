package core

import (
	"math"

	"bfast/internal/series"
	"bfast/internal/stats"
)

// MonitorOutcome is the result of the monitoring phase for one pixel.
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

// MonitorSeries runs the monitoring phase (ker 8–10 of Fig. 12) on the
// compacted residuals rBar: σ̂ estimation, the configured fluctuation
// process (MOSUM with window ⌊hf·n̄⌋, or cumulative sums), the boundary
// test and the process mean. nBar is n̄ (history residual count), nMon the
// number of monitoring residuals; rBar must hold nBar+nMon values.
//
// Every offline path (scalar Detect, the tiled DetectBatch, CLike) calls
// it, and it runs the recurrence of MonitorState: seed from the history
// residuals, then one step per monitoring residual — the step Push takes
// a date at a time. The residual leaving the MOSUM window is read back
// from rBar, so no window ring is kept.
func MonitorSeries(rBar []float64, nBar, nMon int, opt Options, lambda float64) MonitorOutcome {
	if nMon <= 0 {
		return MonitorOutcome{Status: StatusNoMonitoringData, Break: -1}
	}
	var s MonitorState
	if st := s.seed(rBar[:nBar], nil, opt); st != StatusOK {
		return MonitorOutcome{Status: st, Sigma: s.Sigma, Break: -1}
	}
	var outs []float64 // outs[t] leaves the MOSUM window on monitoring date t > 0
	if h := opt.window(nBar); h > 0 {
		outs = rBar[nBar-h : nBar-h+nMon]
	}
	norm := s.norm()
	for t, r := range rBar[nBar : nBar+nMon] {
		var out, bound float64
		if t > 0 && outs != nil {
			out = outs[t]
		}
		if s.Break < 0 { // the verdict needs no boundary after the first break
			bound = stats.BoundaryFor(opt.Process, opt.Boundary, lambda, t, nBar)
		}
		s.step(r, out, norm, bound, t)
	}
	return MonitorOutcome{Status: StatusOK, Sigma: s.Sigma, Mean: s.Mean(), Break: s.Break}
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
// For a processed pixel, the history fit's record (FitMonitors) is then
// pushed every valid monitoring observation, and each Push's process
// value and boundary are recorded: the recurrence Detect monitors, bit
// for bit.
func Trace(y []float64, x *series.DesignMatrix, opt Options) (ProcessTrace, error) {
	res, err := Detect(y, x, opt)
	if err != nil {
		return ProcessTrace{}, err
	}
	tr := ProcessTrace{Status: res.Status, BreakAt: -1}
	if res.Status != StatusOK {
		return tr, nil
	}
	st, _, err := fitOne(y, x, opt)
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
