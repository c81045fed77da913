package core

import (
	"context"
	"fmt"
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

// fitScene builds an m-pixel, n-date scene whose first rows have
// degenerate histories — all-NaN, fewer than K valid dates, a constant
// series, valid only on three seasonal phases (singular in exact
// arithmetic; each pattern twice, so the pixels share a history mask),
// exactly K valid dates (σ̂ has no degrees of freedom) — and whose other
// rows are synthetic series with 0–85 % NaN, a third of them breaking.
// Every degenerate row is valid on every monitoring date.
func fitScene(m, n, hist, k int) []float64 {
	rng := rand.New(rand.NewSource(9400))
	const f = 23
	degenerate := []func(d int) bool{
		func(int) bool { return false },
		func(int) bool { return false },
		func(d int) bool { return d%9 == 0 && d < 9*(k-1) },
		func(d int) bool { return d%9 == 0 && d < 9*(k-1) },
		func(int) bool { return true },
		func(int) bool { return true },
		func(d int) bool { p := d % f; return p == 0 || p == 7 || p == 15 },
		func(d int) bool { p := d % f; return p == 0 || p == 7 || p == 15 },
		func(d int) bool { return d%12 == 3 && d < 3+12*k },
		func(d int) bool { return d%12 == 3 && d < 3+12*k },
	}
	y := make([]float64, m*n)
	for i := 0; i < m; i++ {
		row := y[i*n : (i+1)*n]
		if i < len(degenerate) {
			for d := range row {
				row[d] = math.NaN()
				if d >= hist || degenerate[i](d) {
					row[d] = 0.5
					if i < 4 || i >= 6 {
						row[d] += 0.2*math.Sin(2*math.Pi*float64(d)/f) + 0.01*math.Cos(float64(7*d+i))
					}
				}
			}
			continue
		}
		at := -1
		if i%3 == 0 {
			at = hist + rng.Intn(n-hist)
		}
		copy(row, synthSeries(rng, n, 3, f, 0.05, at, -0.8, []float64{0, 0.3, 0.6, 0.85}[i%4]))
	}
	return y
}

// TestFitMonitorsMatchDetect: the records FitMonitors builds in the tiled
// loop carry the β, σ̂ and n̄ of scalar Detect bit for bit, a pixel Detect
// cannot fit gets Detect's status and a zero record, and every record
// pushed through the monitoring dates reaches Detect's break, mean and
// status. It runs every solver with MOSUM and CUSUM, one and four
// workers, on a scene of M = 61 pixels (eight tiles, the last one short)
// with degenerate histories, over the regular design and over an
// irregular time axis that DesignFor cannot rebuild. The windows of all
// records are built before any is pushed, so records sharing storage
// would diverge.
func TestFitMonitorsMatchDetect(t *testing.T) {
	const M, N, n = 61, 200, 100
	base := defaultTestOpts(n)
	y := fitScene(M, N, n, base.K())
	hist := make([]float64, M*n)
	for i := 0; i < M; i++ {
		copy(hist[i*n:(i+1)*n], y[i*N:i*N+n])
	}
	hb, err := NewBatch(M, n, hist)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := DesignFor(base, N)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9401))
	times := make([]float64, N)
	for d := range times {
		times[d] = 2000 + (float64(16*d)+rng.Float64()*12)/365.25
	}
	axis, err := series.MakeDesignAt(times, base.Harmonics, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	statuses := map[Status]int{}
	for _, design := range []struct {
		name string
		x    *series.DesignMatrix
		freq float64
	}{{"regular", regular, base.Frequency}, {"axis", axis, 1}} {
		for _, solver := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
			for _, process := range []stats.ProcessKind{stats.ProcessMOSUM, stats.ProcessCUSUM} {
				opt := base
				opt.Frequency = design.freq
				opt.Solver = solver
				opt.Process = process
				lambda, err := opt.ResolveLambda()
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%v/%v/w%d", design.name, solver, process, workers)
					recs, status, err := FitMonitors(context.Background(), hb, design.x, opt, BatchConfig{Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(recs) != M || len(status) != M {
						t.Fatalf("%s: %d records, %d statuses for %d pixels", label, len(recs), len(status), M)
					}
					for i := 0; i < M; i++ {
						row := y[i*N : (i+1)*N]
						want, err := Detect(row, design.x, opt)
						if err != nil {
							t.Fatal(err)
						}
						statuses[want.Status]++
						if want.Status == StatusNoMonitoringData {
							t.Fatalf("%s pixel %d: the scene needs monitoring data", label, i)
						}
						rec := &recs[i]
						if status[i] != StatusOK {
							if status[i] != want.Status || rec.Beta != nil || rec.Window != nil || rec.NBar != 0 {
								t.Fatalf("%s pixel %d: fit status %v record %+v, Detect status %v", label, i, status[i], *rec, want.Status)
							}
							continue
						}
						if rec.NBar != want.ValidHistory || len(rec.Beta) != len(want.Beta) ||
							math.Float64bits(rec.Sigma) != math.Float64bits(want.Sigma) {
							t.Fatalf("%s pixel %d: record n̄=%d σ̂=%v, Detect n̄=%d σ̂=%v", label, i, rec.NBar, rec.Sigma, want.ValidHistory, want.Sigma)
						}
						for j := range rec.Beta {
							if math.Float64bits(rec.Beta[j]) != math.Float64bits(want.Beta[j]) {
								t.Fatalf("%s pixel %d: β[%d] %v, Detect %v", label, i, j, rec.Beta[j], want.Beta[j])
							}
						}
						if err := rec.Check(opt, n); err != nil {
							t.Fatalf("%s pixel %d: %v", label, i, err)
						}
					}
					for i := 0; i < M; i++ {
						if status[i] != StatusOK {
							continue
						}
						row := y[i*N : (i+1)*N]
						want, _ := Detect(row, design.x, opt)
						rec := &recs[i]
						for d := n; d < N; d++ {
							rec.Push(design.x, d, row[d], opt, lambda)
						}
						if want.Status != StatusOK || rec.Break != want.BreakIndex ||
							math.Float64bits(rec.Mean()) != math.Float64bits(want.MosumMean) {
							t.Fatalf("%s pixel %d: pushed record break %d mean %v, Detect %v break %d mean %v",
								label, i, rec.Break, rec.Mean(), want.Status, want.BreakIndex, want.MosumMean)
						}
					}
				}
			}
		}
	}
	for _, st := range []Status{StatusOK, StatusInsufficientHistory, StatusSingular, StatusNoVariance} {
		if statuses[st] == 0 {
			t.Errorf("no pixel of the scene reached %v; the test lost a case", st)
		}
	}

	// Caller bugs are errors, not statuses: a batch not History dates
	// wide, a design whose K differs from the options', invalid options.
	ctx := context.Background()
	short, _ := NewBatch(M, n-1, hist[:M*(n-1)])
	if _, _, err := FitMonitors(ctx, short, regular, base, BatchConfig{}); err == nil {
		t.Error("a batch shorter than the history must error")
	}
	if _, err := NewMonitor(y[:n-1], N, base); err == nil {
		t.Error("NewMonitor on a short history must error")
	}
	trendless, _ := series.MakeDesignTrendless(N, base.Harmonics, base.Frequency)
	if _, _, err := FitMonitors(ctx, hb, trendless, base, BatchConfig{}); err == nil {
		t.Error("a K-mismatched design must error")
	}
	bad := base
	bad.History = N
	if _, _, err := FitMonitors(ctx, hb, regular, bad, BatchConfig{}); err == nil {
		t.Error("invalid options must error")
	}
}

// BenchmarkFitMonitors times the batched history fit under each solver
// at one pixel (NewMonitor, Trace) and at the scene an NRT session fits
// (8 192 pixels, n = 114 of N = 228 dates, half the dates cloudy), and
// reports its allocations.
func BenchmarkFitMonitors(b *testing.B) {
	const N, n = 228, 114
	rng := rand.New(rand.NewSource(70))
	for _, m := range []int{1, 8192} {
		hist := make([]float64, m*n)
		for i := 0; i < m; i++ {
			copy(hist[i*n:(i+1)*n], synthSeries(rng, n, 3, 23, 0.05, -1, 0, 0.5))
		}
		hb, _ := NewBatch(m, n, hist)
		x, _ := series.MakeDesign(N, 3, 23)
		for _, s := range []Solver{SolverGaussJordan, SolverPivot, SolverCholesky} {
			b.Run(fmt.Sprintf("px=%d/%v", m, s), func(b *testing.B) {
				opt := defaultTestOpts(n)
				opt.Solver = s
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := FitMonitors(context.Background(), hb, x, opt, BatchConfig{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
