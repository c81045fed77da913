package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bfast/internal/core"
	"bfast/internal/nrt"
)

// The tail percentile is fixed per workload; the picker only reports
// where it sits and whether enough samples lie beyond it.
func TestTailRank(t *testing.T) {
	cases := []struct {
		n         int
		pct       float64
		idx       int
		beyond    int
		supported bool
	}{
		{200, 90, 179, 20, true},
		{199, 90, 179, 19, false},
		{80, 75, 59, 20, true},
		{140000, 99, 138599, 1400, true},
		{10, 90, 8, 1, false},
		{1, 99, 0, 0, false},
		{0, 99, 0, 0, false},
	}
	for _, c := range cases {
		idx, beyond := tailRank(c.n, c.pct)
		if idx != c.idx || beyond != c.beyond || (beyond >= minBeyond) != c.supported {
			t.Errorf("tailRank(%d, p%g) = index %d, %d beyond; want %d, %d, supported %v",
				c.n, c.pct, idx, beyond, c.idx, c.beyond, c.supported)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(sorted, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
}

// The acceptance driver computes spreads with Python's
// statistics.quantiles(v, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g; want 1.5, 12", q1, q3)
	}
	if got := iqrFrac([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Errorf("iqrFrac = %g, want %g", got, 10.5/4)
	}
	if got := iqrFrac([]float64{3}); got != 0 {
		t.Errorf("iqrFrac of one value = %g, want 0", got)
	}
}

// Self time is the span minus the union of its children, so overlapping
// children are not subtracted twice and a tree's selves sum to its root.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "a", StartNs: 60, EndNs: 70},
		{ID: 5, Parent: 3, Name: "leaf", StartNs: 25, EndNs: 45},
	}
	self := selfTimes(spans)
	want := []int64{50, 20, 10, 10, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, spans[i].ID, self[i], want[i])
		}
	}

	tr := &tracer{epoch: time.Now(), spans: spans}
	by := tr.selfByName(1)
	if by["root"] != 50 || by["a"] != 30 || by["b"] != 10 || by["leaf"] != 20 {
		t.Errorf("selfByName(root) = %v", by)
	}
	if by := tr.selfByName(3); len(by) != 2 || by["b"] != 10 || by["leaf"] != 20 {
		t.Errorf("selfByName(b) = %v, want only b and leaf", by)
	}

	// A nil tracer is tracing off.
	var off *tracer
	if id := off.start(0, "x"); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	off.end(0)
}

// Sequential spans under one root: the parts sum to the whole.
func TestSpanPartsSum(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, "root")
	for i := 0; i < 3; i++ {
		sp := tr.start(root, "part")
		time.Sleep(time.Millisecond)
		tr.end(sp)
	}
	tr.end(root)
	var sum int64
	for _, ns := range tr.selfByName(root) {
		sum += ns
	}
	if got := int64(tr.dur(root)); sum != got {
		t.Errorf("selves sum to %d, root lasted %d", sum, got)
	}
}

func TestDigestStable(t *testing.T) {
	r := core.Result{Status: core.StatusOK, BreakIndex: 7, MosumMean: -1.5, Sigma: 0.25}
	d := fnvOffset.result(r)
	// Pinned: the digest is compared across runs and commits, so the
	// function must not drift.
	if got := d.String(); got != "066b197f7b761d48" {
		t.Errorf("digest of the pinned result = %s, want 066b197f7b761d48", got)
	}
	if d != fnvOffset.result(r) {
		t.Error("digest is not deterministic")
	}
	flipped := r
	flipped.Sigma = math.Float64frombits(math.Float64bits(r.Sigma) ^ 1)
	if fnvOffset.result(flipped) == d {
		t.Error("digest ignores the last bit of Sigma")
	}
	other := core.Result{Status: core.StatusSingular, BreakIndex: -1}
	if fnvOffset.result(r).result(other) == fnvOffset.result(other).result(r) {
		t.Error("digest ignores order")
	}
	a := fnvOffset.bytes([]byte("0123456789abcdef-tail"))
	if a == fnvOffset.bytes([]byte("0123456789abcdef-tbil")) || a != fnvOffset.bytes([]byte("0123456789abcdef-tail")) {
		t.Error("byte digest unstable or blind to the unaligned tail")
	}
}

func TestVerdictMapping(t *testing.T) {
	ok := core.Result{Status: core.StatusOK, BreakIndex: 12, MosumMean: -2.5}
	cases := []struct {
		name string
		v    nrt.Verdict
		w    core.Result
		want bool
	}{
		{"same", nrt.Verdict{Status: core.StatusOK, Break: true, BreakOffset: 12, Mean: -2.5, ValidMon: 40}, ok, true},
		{"other break", nrt.Verdict{Status: core.StatusOK, BreakOffset: 13, Mean: -2.5}, ok, false},
		{"mean off by one bit", nrt.Verdict{Status: core.StatusOK, BreakOffset: 12,
			Mean: math.Float64frombits(math.Float64bits(-2.5) + 1)}, ok, false},
		{"no monitoring data is ok with nothing seen", nrt.Verdict{Status: core.StatusOK, BreakOffset: -1},
			core.Result{Status: core.StatusNoMonitoringData, BreakIndex: -1}, true},
		{"no monitoring data but something seen", nrt.Verdict{Status: core.StatusOK, BreakOffset: -1, ValidMon: 1},
			core.Result{Status: core.StatusNoMonitoringData, BreakIndex: -1}, false},
		{"terminal fit status", nrt.Verdict{Status: core.StatusSingular, BreakOffset: -1, Mean: 9},
			core.Result{Status: core.StatusSingular, BreakIndex: -1}, true},
		{"status differs", nrt.Verdict{Status: core.StatusInsufficientHistory, BreakOffset: -1},
			core.Result{Status: core.StatusSingular, BreakIndex: -1}, false},
	}
	for _, c := range cases {
		if got := verdictMatches(c.v, c.w); got != c.want {
			t.Errorf("%s: verdictMatches = %v, want %v", c.name, got, c.want)
		}
	}
	for st := core.StatusOK; st <= core.StatusNoVariance; st++ {
		if got, err := statusFromString(st.String()); err != nil || got != st {
			t.Errorf("statusFromString(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := statusFromString("nonsense"); err == nil {
		t.Error("statusFromString accepted an unknown status")
	}
}

func TestJudge(t *testing.T) {
	lower := manifestMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := manifestMetric{Name: "pixels_per_s", Better: "higher", Bound: 0.1}
	cases := []struct {
		m    manifestMetric
		a, b metric
		want verdict
	}{
		{lower, metric{Value: 100}, metric{Value: 105}, within},
		{lower, metric{Value: 100}, metric{Value: 111}, worse},
		{lower, metric{Value: 100}, metric{Value: 85}, better},
		{higher, metric{Value: 100}, metric{Value: 85}, worse},
		{higher, metric{Value: 100}, metric{Value: 120}, better},
		// A spread wider than the bound cannot show "unchanged"...
		{lower, metric{Value: 100, IQRFrac: 0.2}, metric{Value: 103}, unresolved},
		// ...but does not excuse a move past the bound.
		{lower, metric{Value: 100, IQRFrac: 0.2}, metric{Value: 130}, worse},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %g -> %g, spread %g) = %s, want %s",
				c.m.Name, c.a.Value, c.b.Value, c.a.IQRFrac, got, c.want)
		}
	}
}

func TestCompareSuites(t *testing.T) {
	mf := manifestFile{EndToEnd: []manifestMetric{{Name: "pixels_per_s", Better: "higher", Bound: 0.1}}}
	run := func(pxPerS float64, failed int, dig string) *suiteResult {
		return &suiteResult{Seed: 1, Seconds: 12, Workloads: []*detail{{
			Workload: "w", Attempted: 100, Failed: failed, ResultsDigest: dig,
			Metrics: map[string]metric{"pixels_per_s": {Value: pxPerS}},
		}}}
	}
	var out bytes.Buffer
	if err := compareSuites(&out, mf, run(100, 0, "aa"), run(97, 0, "aa")); err != nil {
		t.Errorf("within bound, same digest: %v\n%s", err, out.String())
	}
	if err := compareSuites(&out, mf, run(100, 0, "aa"), run(80, 0, "aa")); err == nil {
		t.Error("a 20% throughput drop passed")
	}
	if err := compareSuites(&out, mf, run(100, 0, "aa"), run(100, 1, "aa")); err == nil {
		t.Error("a higher failed_frac passed")
	}
	if err := compareSuites(&out, mf, run(100, 0, "aa"), run(100, 0, "bb")); err == nil {
		t.Error("different digests on the same inputs passed")
	}
	other := run(100, 0, "bb")
	other.Seed = 2
	if err := compareSuites(&out, mf, run(100, 0, "aa"), other); err != nil {
		t.Errorf("digests of different seeds must not be compared: %v", err)
	}
}

// BENCHMARK.json is what the acceptance driver and -compare read; the
// tables in metrics.go and workloads.go are what the harness emits.
func TestManifest(t *testing.T) {
	var mf manifestFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &mf); err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", mf.RunSeconds, defaultSeconds)
	}
	if len(mf.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(mf.Workloads), len(defs))
	}
	for i, d := range defs {
		if mf.Workloads[i].Name != d.Name || mf.Workloads[i].Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go has %q (or their why differs)",
				i, mf.Workloads[i].Name, d.Name)
		}
		if len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", d.Name)
		}
		sz := size(d, float64(mf.RunSeconds), 1)
		if _, beyond := tailRank(sz.ops(), d.TailPct); beyond < minBeyond {
			t.Errorf("%s: p%g of %d ops has %d samples beyond, want at least %d",
				d.Name, d.TailPct, sz.ops(), beyond, minBeyond)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd)
	check("per_layer", mf.PerLayer, perLayer)
	var setup float64
	for _, m := range mf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range mf.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has bound %g, larger than setup_s's %g", m.Name, m.Bound, setup)
		}
	}
}

func TestSizing(t *testing.T) {
	for _, d := range defs {
		for _, seconds := range []float64{fullSeconds, defaultSeconds, 0.125} {
			sz := size(d, seconds, 1)
			if sz.Rounds < 1 || sz.Rounds > 12 || sz.PerRound < 1 || sz.WarmupOps < 1 {
				t.Errorf("%s at %gs: %d rounds of %d ops, warm-up %d", d.Name, seconds, sz.Rounds, sz.PerRound, sz.WarmupOps)
			}
			if d.Kind != kindNRT && sz.PerRound%d.Cycle != 0 {
				t.Errorf("%s at %gs: %d ops per round is not a whole number of %d-op cycles", d.Name, seconds, sz.PerRound, d.Cycle)
			}
		}
		full := size(d, fullSeconds, 1)
		if dev := math.Abs(float64(full.ops()-d.FullOps)) / float64(d.FullOps); dev > 0.05 {
			t.Errorf("%s: %d ops at %ds, frozen count is %d", d.Name, full.ops(), fullSeconds, d.FullOps)
		}
	}
	if a, b := size(defs[0], 12, 1), size(defs[0], 12, 1); a.ops() != b.ops() {
		t.Error("sizing is not deterministic")
	}
}

// TestSmoke runs every workload, end to end and traced, at 1/200 of the
// op count on a scene 1/16 the size, with verification on. It is the
// tier-1 guard that the harness still compiles against and agrees with
// the layers it measures.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, d := range defs {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: d.Name, seed: 3, seconds: fullSeconds / 200.0, pxDiv: 16,
				trace: trace, outDir: t.TempDir()}
			det, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", d.Name, trace, err)
			}
			if !det.correct() || det.Verified == 0 || det.Attempted == 0 {
				t.Errorf("%s trace=%v: failed %d of %d, %d verified: %s", d.Name, trace,
					det.Failed, det.Attempted, det.Verified, det.FirstError)
			}
			want := endToEnd
			if trace {
				want = perLayer
				if _, err := os.Stat(traceFile(o.outDir, d.Name)); err != nil {
					t.Errorf("%s: no span file: %v", d.Name, err)
				}
			}
			if len(det.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", d.Name, trace, len(det.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := det.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s missing or in %q, want %q", d.Name, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", d.Name, m.Name, got.Value)
				}
			}
			// Every scratch directory is gone and only the span file is
			// left behind.
			left, _ := os.ReadDir(o.outDir)
			for _, e := range left {
				if e.IsDir() {
					t.Errorf("%s trace=%v: left %s behind", d.Name, trace, e.Name())
				}
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}
