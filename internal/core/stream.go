package core

import (
	"context"
	"fmt"
	"math"

	"bfast/internal/series"
	"bfast/internal/stats"
	"bfast/internal/tile"
)

// MonitorState is one pixel's monitor record from fit to verdict: the
// fitted history model and the fluctuation-process accumulators, and
// nothing the pixels of a scene share. Every path runs one recurrence on
// it — seed from the history residuals, then one step per valid
// monitoring residual: FitMonitors seeds records in the tiled loop, Push
// steps them a date at a time, MonitorSeries runs both over one pixel's
// residual array. The options, the resolved λ, the design matrix (hence
// the capacity N) and the date cursor belong to whoever drives the
// record — a Monitor, an NRT session — and are passed to Push.
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
	var out float64
	if opt.Process != stats.ProcessCUSUM {
		// Slide the window: the oldest residual leaves, the newest takes
		// its slot.
		out = s.Window[s.WPos]
		s.Window[s.WPos] = r
		s.WPos = (s.WPos + 1) % len(s.Window)
	}
	bound = stats.BoundaryFor(opt.Process, opt.Boundary, lambda, s.ValidMon, s.NBar)
	return s.step(r, out, s.norm(), bound, t-opt.History), bound
}

// seed starts the record from its n̄ compacted history residuals: σ̂ and
// the accumulator over the last h−1 of them, so that the first
// monitoring residual completes the first MOSUM window (Fig. 12 ker 9:
// indices n̄−h+1 .. n̄). win, when non-nil, has length h and becomes the
// window ring: those h−1 residuals, then the zero slot the first step
// replaces. It returns StatusNoVariance, σ̂ set, for a zero σ̂ or an
// empty window. Beta is the caller's.
func (s *MonitorState) seed(rHist, win []float64, opt Options) Status {
	s.NBar = len(rHist)
	s.Break = -1
	s.Sigma = stats.Sigma(opt.Sigma, rHist, opt.K(), opt.Harmonics)
	if s.Sigma <= 0 {
		return StatusNoVariance
	}
	if opt.Process == stats.ProcessCUSUM {
		return StatusOK
	}
	h := opt.window(s.NBar)
	if h < 1 || h > s.NBar {
		return StatusNoVariance
	}
	tail := rHist[s.NBar-h+1:]
	for _, r := range tail {
		s.Acc += r
	}
	if win != nil {
		copy(win, tail)
		win[h-1] = 0
		s.Window = win
		s.WPos = h - 1
	}
	return StatusOK
}

// norm is the process normalization 1/(σ̂·√n̄).
func (s *MonitorState) norm() float64 {
	return 1 / (s.Sigma * math.Sqrt(float64(s.NBar)))
}

// step folds one valid monitoring residual r into the record — the one
// update of ker 8–10 every path runs. The accumulator gains r and loses
// out, the residual leaving the MOSUM window (0 for CUSUM and on the
// first monitoring date); the process value Acc·norm joins the running
// sum; the first value beyond bound, the boundary on this date, records
// at as the break. It returns the process value.
func (s *MonitorState) step(r, out, norm, bound float64, at int) float64 {
	s.Acc += r - out
	proc := s.Acc * norm
	s.Sum += proc
	s.ValidMon++
	if s.Break < 0 && math.Abs(proc) > bound {
		s.Break = at
	}
	return proc
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
	if h := opt.window(s.NBar); len(s.Window) != h {
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
	st, status, err := fitOne(history, x, opt)
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

// FitMonitors fits every pixel of hist, an M×History batch (NaN =
// missing), and returns one record per pixel, positioned at the first
// monitoring date, with its Status. It is DetectBatch's tiled loop
// stopped after the residual pass, followed by the seeding MonitorSeries
// runs, so a record pushed through the monitoring dates reaches Detect's
// verdict bit for bit. x is the caller's design over the full series;
// only its first History columns are read, so designs DesignFor cannot
// rebuild (NewDetectorForAxis) work too.
//
// A pixel Detect cannot fit gets a zero record and Detect's status
// (insufficient history, singular, no variance). The error reports
// invalid options, a design or batch that does not match them, and
// cancellation, as for DetectBatch.
func FitMonitors(ctx context.Context, hist *Batch, x *series.DesignMatrix, opt Options, cfg BatchConfig) ([]MonitorState, []Status, error) {
	if err := opt.Validate(x.N); err != nil {
		return nil, nil, err
	}
	if x.K != opt.K() {
		return nil, nil, fmt.Errorf("core: design matrix has K=%d rows, options need %d", x.K, opt.K())
	}
	n := opt.History
	if hist.N != n {
		return nil, nil, fmt.Errorf("core: history batch has %d dates, options need %d", hist.N, n)
	}
	mask, err := hist.MaskCtx(ctx, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	pp := tile.GetPairs(&series.DesignMatrix{K: x.K, N: n, Data: historySlice(x, n).Data}, n)
	defer pp.Release()
	recs := make([]MonitorState, hist.M)
	out, err := batchTiled(ctx, hist, mask, nil, pp, opt, 0, cfg, func(s *tileScratch, opt Options, _ float64, idx []int, out []Result) {
		seedTile(s, opt, idx, out, recs)
	})
	if err != nil {
		return nil, nil, err
	}
	status := make([]Status, hist.M)
	for i := range out {
		status[i] = out[i].Status
	}
	return recs, status, nil
}

// fitOne is FitMonitors for the one pixel whose history is
// history[:opt.History].
func fitOne(history []float64, x *series.DesignMatrix, opt Options) (MonitorState, Status, error) {
	if len(history) < opt.History {
		return MonitorState{}, StatusOK, fmt.Errorf("core: history has %d entries, need %d", len(history), opt.History)
	}
	hist := &Batch{M: 1, N: opt.History, Y: history[:opt.History]}
	//lint:allow ctxfirst -- NewMonitor and Trace keep their signatures, which carry no context
	recs, status, err := FitMonitors(context.TODO(), hist, x, opt, BatchConfig{Workers: 1})
	if err != nil {
		return MonitorState{}, StatusOK, err
	}
	return recs[0], status[0], nil
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
