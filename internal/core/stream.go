package core

import (
	"fmt"
	"math"

	"bfast/internal/series"
	"bfast/internal/stats"
)

// MonitorState is one pixel's streaming monitor record: the fitted
// history model and the fluctuation-process accumulators, and nothing
// the pixels of a scene share. The options, the resolved λ, the design
// matrix (hence the capacity N) and the date cursor belong to whoever
// drives the record — a Monitor for one pixel, an NRT session for a
// scene — and are passed to Push.
//
// The record is also the durable form: internal/state encodes these
// fields as they are, so a record decoded from a snapshot continues
// bit-identically to the one that was written (DESIGN.md §6). Derived
// quantities (the normalization 1/(σ̂·√n̄), the MOSUM window size
// h = len(Window)) are recomputed from the stored fields, which cannot
// diverge.
type MonitorState struct {
	// Beta holds the K fitted history coefficients.
	Beta []float64
	// NBar is n̄, the valid history observation count.
	NBar int
	// Sigma is σ̂ from the history fit.
	Sigma float64
	// Window is the MOSUM residual ring buffer (length h); nil for CUSUM.
	Window []float64
	// WPos is the ring-buffer write position.
	WPos int
	// Acc is the un-normalized process accumulator.
	Acc float64
	// ValidMon is the number of valid monitoring observations seen.
	ValidMon int
	// Sum is the running sum of normalized process values.
	Sum float64
	// Break is the monitoring offset of the first flagged break, or -1.
	Break int
}

// Clone returns a deep copy of the record. Push updates the window in
// place, so a record shared between two drivers must be cloned first.
func (s *MonitorState) Clone() MonitorState {
	c := *s
	c.Beta = append([]float64(nil), s.Beta...)
	c.Window = append([]float64(nil), s.Window...)
	return c
}

// Push advances the record by the observation v on absolute date t
// (NaN = missing) of design x, the O(K) update of Alg. 1 (Fig. 12
// ker 8–10), and returns the normalized process value and the boundary
// on that date. A missing observation leaves the record unchanged and
// returns (NaN, 0). The caller owns the cursor: t must lie inside the
// monitoring period of x.
func (s *MonitorState) Push(x *series.DesignMatrix, t int, v float64, opt Options, lambda float64) (proc, bound float64) {
	if math.IsNaN(v) {
		return math.NaN(), 0
	}
	K := opt.K()
	var pred float64
	for j := 0; j < K; j++ {
		pred += x.Data[j*x.N+t] * s.Beta[j]
	}
	r := v - pred
	if opt.Process == stats.ProcessCUSUM {
		s.Acc += r
	} else {
		// Slide the window: drop the oldest residual, add the newest.
		s.Acc += r - s.Window[s.WPos]
		s.Window[s.WPos] = r
		s.WPos = (s.WPos + 1) % len(s.Window)
	}
	proc = s.Acc * (1 / (s.Sigma * math.Sqrt(float64(s.NBar))))
	s.Sum += proc
	s.ValidMon++
	bound = stats.BoundaryFor(opt.Process, opt.Boundary, lambda, s.ValidMon-1, s.NBar)
	if s.Break < 0 && math.Abs(proc) > bound {
		s.Break = t - opt.History
	}
	return proc, bound
}

// Mean returns the running mean of the normalized process over the valid
// monitoring observations seen so far (0 before the first one) — the
// change-magnitude diagnostic the offline Result reports as MosumMean.
func (s *MonitorState) Mean() float64 {
	if s.ValidMon == 0 {
		return 0
	}
	return s.Sum / float64(s.ValidMon)
}

// Check reports whether s is a record a monitor with options opt could
// hold with its cursor at absolute date next. It is the consistency
// gate for records that arrive from outside the process: a snapshot
// that passed the internal/state checksum but violates these
// invariants (a hand-edited file, a foreign encoder) is rejected rather
// than trusted. The session-shared half — opt.Validate(N), λ > 0 and
// History ≤ next ≤ N — is the caller's to check once per session.
func (s *MonitorState) Check(opt Options, next int) error {
	if K := opt.K(); len(s.Beta) != K {
		return fmt.Errorf("core: monitor record has %d coefficients, options need %d", len(s.Beta), K)
	}
	if s.NBar < opt.minHist() {
		return fmt.Errorf("core: monitor record n̄=%d below the minimum valid history %d", s.NBar, opt.minHist())
	}
	if !(s.Sigma > 0) {
		return fmt.Errorf("core: monitor record has non-positive σ̂ %v", s.Sigma)
	}
	seen := next - opt.History
	if s.ValidMon < 0 || s.ValidMon > seen {
		return fmt.Errorf("core: monitor record has %d valid monitoring observations after %d dates", s.ValidMon, seen)
	}
	if s.Break < -1 || s.Break >= seen {
		return fmt.Errorf("core: monitor record break offset %d out of range", s.Break)
	}
	if opt.Process == stats.ProcessCUSUM {
		if len(s.Window) != 0 {
			return fmt.Errorf("core: CUSUM monitor record carries a %d-entry MOSUM window", len(s.Window))
		}
		return nil
	}
	if h := int(float64(s.NBar) * opt.HFrac); len(s.Window) != h {
		return fmt.Errorf("core: MOSUM window has %d entries, ⌊%g·%d⌋=%d expected", len(s.Window), opt.HFrac, s.NBar, h)
	}
	if s.WPos < 0 || s.WPos >= len(s.Window) {
		return fmt.Errorf("core: window position %d outside [0,%d)", s.WPos, len(s.Window))
	}
	return nil
}

// Monitor is the near-real-time variant of BFAST-Monitor: the use case the
// paper's introduction motivates ("the timely ... detection of such events
// is critical to enable a better protection and to trigger
// countermeasures", citing the near-real-time design of Verbesselt et al.
// 2012). The model is fitted once on the history period; subsequent
// observations are then pushed one at a time as they are acquired, each
// update costing O(K) — no refitting, no reprocessing of the series.
//
// A Monitor is one MonitorState with its own options, design matrix and
// cursor. It is created per pixel with NewMonitor and fed with Push; it
// reports the break as soon as the process leaves the boundary.
type Monitor struct {
	opt    Options
	lambda float64
	x      *series.DesignMatrix
	t      int // next date index to consume (absolute)
	st     MonitorState
}

// NewMonitor fits the history model on the first opt.History entries of
// history (which must have length ≥ opt.History; entries beyond are
// ignored) and returns a streaming monitor positioned at the first
// monitoring date. seriesLen is the total designed series length N — the
// design matrix must cover every date that will ever be pushed.
func NewMonitor(history []float64, seriesLen int, opt Options) (*Monitor, error) {
	if err := opt.Validate(seriesLen); err != nil {
		return nil, err
	}
	x, err := DesignFor(opt, seriesLen)
	if err != nil {
		return nil, err
	}
	st, status, err := FitMonitor(history, x, opt)
	if err != nil {
		return nil, err
	}
	switch status {
	case StatusOK:
	case StatusInsufficientHistory:
		return nil, fmt.Errorf("core: insufficient valid history (< %d)", opt.minHist())
	case StatusSingular:
		return nil, fmt.Errorf("core: singular normal matrix in history fit")
	default: // StatusNoVariance
		return nil, fmt.Errorf("core: zero residual variance or invalid MOSUM window in history")
	}
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return nil, err
	}
	return &Monitor{opt: opt, lambda: lambda, x: x, t: opt.History, st: st}, nil
}

// FitMonitor fits the history model against a caller-supplied design
// matrix and classifies the outcome instead of collapsing every fit
// failure into an error. This is the scene-scale entry point: a session
// fitting M pixels shares one K×N design matrix across all records
// (NewMonitor would rebuild it per pixel) and records per-pixel fit
// failures as terminal statuses rather than aborting the scene.
//
// The returned error reports caller bugs only (invalid options, a design
// matrix that does not cover opt's requirements, a short history slice).
// Data-dependent failures return a zero record and the Status the offline
// Detect would report for the same pixel: StatusInsufficientHistory,
// StatusSingular, or StatusNoVariance (zero σ̂ or an invalid MOSUM
// window). On StatusOK the record is positioned at the first monitoring
// date (opt.History) and is bit-identical in behavior to the offline
// refit path.
func FitMonitor(history []float64, x *series.DesignMatrix, opt Options) (MonitorState, Status, error) {
	if err := opt.Validate(x.N); err != nil {
		return MonitorState{}, StatusOK, err
	}
	if len(history) < opt.History {
		return MonitorState{}, StatusOK, fmt.Errorf("core: history has %d entries, need %d", len(history), opt.History)
	}
	if x.K != opt.K() {
		return MonitorState{}, StatusOK, fmt.Errorf("core: design matrix has K=%d rows, options need %d", x.K, opt.K())
	}
	n := opt.History
	K := opt.K()

	f := series.FilterMissing(history[:n], n)
	if f.NValidHist < opt.minHist() {
		return MonitorState{}, StatusInsufficientHistory, nil
	}
	xh := historySlice(x, n)
	beta, ok := fitModel(xh, history[:n], opt)
	if !ok {
		return MonitorState{}, StatusSingular, nil
	}

	// History residuals (compacted) for σ̂ and the initial MOSUM window.
	rHist := make([]float64, 0, f.NValidHist)
	for p := 0; p < f.NValidHist; p++ {
		t := f.Index[p]
		var pred float64
		for j := 0; j < K; j++ {
			pred += x.Data[j*x.N+t] * beta[j]
		}
		rHist = append(rHist, history[t]-pred)
	}
	sigma := stats.Sigma(opt.Sigma, rHist, K, opt.Harmonics)
	if sigma <= 0 {
		return MonitorState{}, StatusNoVariance, nil
	}
	st := MonitorState{Beta: beta, NBar: f.NValidHist, Sigma: sigma, Break: -1}
	if opt.Process != stats.ProcessCUSUM {
		h := int(float64(st.NBar) * opt.HFrac)
		if h < 1 || h > st.NBar {
			return MonitorState{}, StatusNoVariance, nil
		}
		// Seed the window with the last h−1 history residuals: the first
		// monitoring observation completes the first window (Fig. 12
		// ker 9 semantics: indices n̄−h+1 .. n̄).
		st.Window = make([]float64, h)
		for i := 0; i < h-1; i++ {
			r := rHist[len(rHist)-(h-1)+i]
			st.Window[i] = r
			st.Acc += r
		}
		st.WPos = h - 1
	}
	return st, StatusOK, nil
}

// State is the monitor's standing after the latest Push.
type State struct {
	// Date is the absolute index of the last consumed date.
	Date int
	// Process is the normalized fluctuation-process value (NaN until a
	// valid monitoring observation has been seen).
	Process float64
	// Boundary is the current boundary value.
	Boundary float64
	// BreakDetected reports whether a break has been flagged (sticky).
	BreakDetected bool
	// BreakOffset is the monitoring offset of the first break, or -1.
	BreakOffset int
	// Mean is the running mean of the process over valid observations.
	Mean float64
}

// Push consumes the observation for the next date (NaN = missing) and
// returns the updated state. Pushing past the designed series length
// returns an error.
func (m *Monitor) Push(v float64) (State, error) {
	if m.t >= m.x.N {
		return State{}, fmt.Errorf("core: series exhausted (designed for %d dates)", m.x.N)
	}
	t := m.t
	m.t++
	proc, bound := m.st.Push(m.x, t, v, m.opt, m.lambda)
	return State{
		Date: t, Process: proc, Boundary: bound,
		BreakDetected: m.st.Break >= 0, BreakOffset: m.st.Break,
		Mean: m.st.Mean(),
	}, nil
}

// Beta returns the fitted history coefficients.
func (m *Monitor) Beta() []float64 { return append([]float64(nil), m.st.Beta...) }

// Sigma returns the fitted σ̂.
func (m *Monitor) Sigma() float64 { return m.st.Sigma }

// ValidHistory returns n̄.
func (m *Monitor) ValidHistory() int { return m.st.NBar }

// NextDate returns the absolute index of the next date Push will consume.
func (m *Monitor) NextDate() int { return m.t }

// SeriesLen returns the designed series length N (the capacity).
func (m *Monitor) SeriesLen() int { return m.x.N }

// ValidMonitoring returns the number of valid (non-NaN) monitoring
// observations consumed so far.
func (m *Monitor) ValidMonitoring() int { return m.st.ValidMon }

// BreakOffset returns the monitoring offset of the first flagged break,
// or -1 while no break has been detected.
func (m *Monitor) BreakOffset() int { return m.st.Break }

// Mean returns the running mean of the normalized process over the valid
// monitoring observations seen so far (0 before the first one) — the
// change-magnitude diagnostic the offline Result reports as MosumMean.
func (m *Monitor) Mean() float64 { return m.st.Mean() }
