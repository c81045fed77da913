package core

import (
	"math"
	"math/rand"
	"testing"

	"bfast/internal/stats"
)

// pushAll feeds y[from:to] into mon and returns the bit pattern of every
// State field that matters for bit-identity (NaN-safe via Float64bits).
func pushAll(t *testing.T, mon *Monitor, y []float64, from, to int) []State {
	t.Helper()
	out := make([]State, 0, to-from)
	for i := from; i < to; i++ {
		st, err := mon.Push(y[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

func statesEqual(a, b State) bool {
	return a.Date == b.Date &&
		math.Float64bits(a.Process) == math.Float64bits(b.Process) &&
		math.Float64bits(a.Boundary) == math.Float64bits(b.Boundary) &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		a.BreakDetected == b.BreakDetected &&
		a.BreakOffset == b.BreakOffset
}

// TestMonitorSnapshotResumeBitIdentical: a monitor continued mid-stream
// from a deep copy of its record, with a freshly built design matrix (as
// an NRT restore does), must continue bit-identically to the
// uninterrupted monitor, across NaN fractions including heavily-gapped
// series, for both MOSUM and CUSUM processes, and at every split point.
func TestMonitorSnapshotResumeBitIdentical(t *testing.T) {
	N, n := 320, 160
	for _, nanFrac := range []float64{0, 0.5, 0.9} {
		for _, cusum := range []bool{false, true} {
			for trial := 0; trial < 8; trial++ {
				rng := rand.New(rand.NewSource(int64(9000 + trial)))
				at := -1
				if trial%2 == 0 {
					at = 200 + rng.Intn(60)
				}
				y := synthSeries(rng, N, 3, 23, 0.05, at, -0.7, nanFrac)
				opt := defaultTestOpts(n)
				if cusum {
					opt.Process = stats.ProcessCUSUM
				}
				ref, err := NewMonitor(y[:n], N, opt)
				if err != nil {
					// Heavily-gapped histories can be unfittable; that is a
					// fit-classification case, not a snapshot case.
					continue
				}
				split := n + (trial%4)*(N-n)/4
				refStates := pushAll(t, ref, y, n, N)

				mon, err := NewMonitor(y[:n], N, opt)
				if err != nil {
					t.Fatal(err)
				}
				pushAll(t, mon, y, n, split)
				if err := mon.st.Check(opt, mon.t); err != nil {
					t.Fatalf("nan=%g cusum=%v trial=%d: live record fails its check: %v", nanFrac, cusum, trial, err)
				}
				x, err := DesignFor(opt, N)
				if err != nil {
					t.Fatal(err)
				}
				resumed := &Monitor{opt: opt, lambda: mon.lambda, x: x, t: mon.t, st: mon.st.Clone()}
				// The original keeps going first: a copy that aliased its
				// window would diverge below.
				pushAll(t, mon, y, split, N)
				got := pushAll(t, resumed, y, split, N)
				for i, st := range got {
					if want := refStates[split-n+i]; !statesEqual(st, want) {
						t.Fatalf("nan=%g cusum=%v trial=%d: state %d diverged after resume:\n got %+v\nwant %+v",
							nanFrac, cusum, trial, i, st, want)
					}
				}
				if resumed.Sigma() != mon.Sigma() || resumed.ValidHistory() != mon.ValidHistory() {
					t.Fatal("resumed fit diagnostics diverged")
				}
			}
		}
	}
}

// TestMonitorStateCloneIsDeepCopy: mutating a cloned record must not
// affect the monitor it was taken from.
func TestMonitorStateCloneIsDeepCopy(t *testing.T) {
	N, n := 200, 100
	rng := rand.New(rand.NewSource(9100))
	y := synthSeries(rng, N, 3, 23, 0.05, -1, 0, 0)
	mon, err := NewMonitor(y[:n], N, defaultTestOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	st := mon.st.Clone()
	for i := range st.Beta {
		st.Beta[i] = math.NaN()
	}
	for i := range st.Window {
		st.Window[i] = math.NaN()
	}
	got, err := mon.Push(y[n])
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got.Process) {
		t.Fatal("clone mutation reached the live monitor")
	}
}
