package core

import (
	"math"
	"math/rand"
	"testing"

	"bfast/internal/series"
	"bfast/internal/stats"
)

// TestMonitorMatchesBatchDetect: feeding the monitoring observations one
// by one must produce exactly the same break decision, break offset and
// process mean as the offline Detect on the full series.
func TestMonitorMatchesBatchDetect(t *testing.T) {
	N, n := 320, 160
	x, _ := series.MakeDesign(N, 3, 23)
	opt := defaultTestOpts(n)
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		shift := -1.0 + 2*rng.Float64()
		at := -1
		if trial%2 == 0 {
			at = 200 + rng.Intn(80)
		}
		y := synthSeries(rng, N, 3, 23, 0.05, at, shift, 0.4)

		want, err := Detect(y, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want.Status != StatusOK {
			continue
		}
		mon, err := NewMonitor(y[:n], N, opt)
		if err != nil {
			t.Fatal(err)
		}
		var last State
		for ti := n; ti < N; ti++ {
			st, err := mon.Push(y[ti])
			if err != nil {
				t.Fatal(err)
			}
			last = st
		}
		if (want.BreakIndex >= 0) != last.BreakDetected {
			t.Fatalf("trial %d: offline break %d vs streaming detected=%v",
				trial, want.BreakIndex, last.BreakDetected)
		}
		if want.BreakIndex != last.BreakOffset {
			t.Fatalf("trial %d: break offset %d vs %d", trial, want.BreakIndex, last.BreakOffset)
		}
		if math.Abs(want.MosumMean-last.Mean) > 1e-12 {
			t.Fatalf("trial %d: mean %v vs %v", trial, want.MosumMean, last.Mean)
		}
	}
}

func TestMonitorCUSUMMatchesDetect(t *testing.T) {
	N, n := 300, 150
	x, _ := series.MakeDesign(N, 3, 23)
	opt := defaultTestOpts(n)
	opt.Process = stats.ProcessCUSUM
	rng := rand.New(rand.NewSource(3100))
	y := synthSeries(rng, N, 3, 23, 0.03, 220, -0.5, 0.3)
	want, err := Detect(y, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(y[:n], N, opt)
	if err != nil {
		t.Fatal(err)
	}
	var last State
	for ti := n; ti < N; ti++ {
		st, err := mon.Push(y[ti])
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if want.BreakIndex != last.BreakOffset {
		t.Fatalf("CUSUM: offline %d vs streaming %d", want.BreakIndex, last.BreakOffset)
	}
}

func TestMonitorEarlyDetection(t *testing.T) {
	// The monitor must flag the break as soon as the boundary is crossed,
	// not only at the end of the series.
	N, n := 300, 150
	opt := defaultTestOpts(n)
	rng := rand.New(rand.NewSource(3200))
	y := synthSeries(rng, N, 3, 23, 0.02, 180, -0.8, 0.2)
	mon, err := NewMonitor(y[:n], N, opt)
	if err != nil {
		t.Fatal(err)
	}
	firstFlag := -1
	for ti := n; ti < N; ti++ {
		st, err := mon.Push(y[ti])
		if err != nil {
			t.Fatal(err)
		}
		if st.BreakDetected && firstFlag < 0 {
			firstFlag = ti
		}
	}
	if firstFlag < 0 {
		t.Fatal("strong break never flagged")
	}
	if firstFlag < 180 || firstFlag > 240 {
		t.Fatalf("break flagged at date %d, expected shortly after 180", firstFlag)
	}
}

func TestMonitorStateFields(t *testing.T) {
	N, n := 200, 100
	opt := defaultTestOpts(n)
	rng := rand.New(rand.NewSource(3300))
	y := synthSeries(rng, N, 3, 23, 0.05, -1, 0, 0)
	mon, err := NewMonitor(y[:n], N, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mon.ValidHistory() != n {
		t.Fatalf("ValidHistory = %d", mon.ValidHistory())
	}
	if mon.Sigma() <= 0 || len(mon.Beta()) != 8 {
		t.Fatal("accessors broken")
	}
	st, err := mon.Push(math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(st.Process) || st.BreakDetected {
		t.Fatalf("NaN push should be inert: %+v", st)
	}
	st, err = mon.Push(y[n+1])
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(st.Process) || st.Boundary <= 0 {
		t.Fatalf("valid push must produce process + boundary: %+v", st)
	}
}

func TestMonitorExhaustion(t *testing.T) {
	N, n := 64, 32
	opt := defaultTestOpts(n)
	rng := rand.New(rand.NewSource(3400))
	y := synthSeries(rng, N, 3, 23, 0.05, -1, 0, 0)
	mon, err := NewMonitor(y[:n], N, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ti := n; ti < N; ti++ {
		if _, err := mon.Push(y[ti]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.Push(0.5); err == nil {
		t.Fatal("push past N must fail")
	}
}

func TestMonitorConstructionErrors(t *testing.T) {
	opt := defaultTestOpts(32)
	if _, err := NewMonitor(make([]float64, 10), 64, opt); err == nil {
		t.Fatal("short history must fail")
	}
	allNaN := make([]float64, 32)
	for i := range allNaN {
		allNaN[i] = math.NaN()
	}
	if _, err := NewMonitor(allNaN, 64, opt); err == nil {
		t.Fatal("all-NaN history must fail")
	}
	bad := defaultTestOpts(64) // history == seriesLen
	if _, err := NewMonitor(make([]float64, 64), 64, bad); err == nil {
		t.Fatal("invalid options must fail")
	}
}

// TestTraceMatchesDetect: the trajectory Trace records is the one Detect
// monitors — the same status, the break at the same date, and a process
// whose mean is Detect's MosumMean bit for bit — over MOSUM and CUSUM,
// window fractions across (0, 1] and NaN shares from none to all.
func TestTraceMatchesDetect(t *testing.T) {
	N, n := 200, 100
	x, _ := series.MakeDesign(N, 3, 23)
	ok := 0
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		opt := defaultTestOpts(n)
		opt.HFrac = 0.05 + 0.95*rng.Float64()
		opt.Lambda = 0.5 + rng.Float64()
		if trial%2 == 1 {
			opt.Process = stats.ProcessCUSUM
		}
		at := -1
		if trial%3 == 0 {
			at = n + rng.Intn(N-n)
		}
		y := synthSeries(rng, N, 3, 23, 0.05, at, -1+2*rng.Float64(), rng.Float64())
		want, err := Detect(y, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Trace(y, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Status != want.Status {
			t.Fatalf("trial %d: Trace status %v, Detect %v", trial, tr.Status, want.Status)
		}
		if want.Status != StatusOK {
			continue
		}
		ok++
		brk := -1
		if tr.BreakAt >= 0 {
			brk = tr.Dates[tr.BreakAt] - n
		}
		if brk != want.BreakIndex {
			t.Fatalf("trial %d: Trace breaks at offset %d (BreakAt %d), Detect at %d", trial, brk, tr.BreakAt, want.BreakIndex)
		}
		if len(tr.Process) != want.Valid-want.ValidHistory || len(tr.Boundary) != len(tr.Process) || len(tr.Dates) != len(tr.Process) {
			t.Fatalf("trial %d: trace lengths %d/%d/%d for %d monitoring observations",
				trial, len(tr.Dates), len(tr.Process), len(tr.Boundary), want.Valid-want.ValidHistory)
		}
		var sum float64
		for _, v := range tr.Process {
			sum += v
		}
		if mean := sum / float64(len(tr.Process)); math.Float64bits(mean) != math.Float64bits(want.MosumMean) {
			t.Fatalf("trial %d: trace mean %v, Detect MosumMean %v", trial, mean, want.MosumMean)
		}
	}
	if ok < 100 {
		t.Fatalf("only %d of the trials were processed; the test needs more OK pixels", ok)
	}
}

// BenchmarkFitMonitor times the scalar history fit of one pixel under
// each solver — the per-pixel work of an NRT session's fit — and
// reports its allocations.
func BenchmarkFitMonitor(b *testing.B) {
	rng := rand.New(rand.NewSource(70))
	N, n := 512, 256
	y := synthSeries(rng, N, 3, 23, 0.05, -1, 0, 0.5)
	x, _ := series.MakeDesign(N, 3, 23)
	for _, s := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
		b.Run(s.String(), func(b *testing.B) {
			opt := defaultTestOpts(n)
			opt.Solver = s
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, st, err := FitMonitor(y[:n], x, opt); err != nil || st != StatusOK {
					b.Fatal(st, err)
				}
			}
		})
	}
}
