package bfast

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"bfast/internal/core"
	"bfast/internal/cube"
	"bfast/internal/leakcheck"
	"bfast/internal/sched"
	"bfast/internal/workload"
)

func exampleScene(t *testing.T, m, n, hist int) (*Scene, *Batch) {
	t.Helper()
	spec := SceneSpec{
		Name: "api-test", M: m, N: n, History: hist,
		NaNFrac: 0.4, BreakFrac: 0.5, BreakShift: -0.6, Seed: 71,
	}
	s, err := GenerateScene(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SceneBatch(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func TestNewDetectorValidates(t *testing.T) {
	if _, err := NewDetector(100, DefaultOptions(100)); err == nil {
		t.Fatal("history == N must fail")
	}
	d, err := NewDetector(100, DefaultOptions(50))
	if err != nil {
		t.Fatal(err)
	}
	if d.SeriesLen() != 100 || d.Options().History != 50 {
		t.Fatal("accessors broken")
	}
}

func TestDetectorSingleSeries(t *testing.T) {
	s, _ := exampleScene(t, 8, 256, 128)
	d, err := NewDetector(256, DefaultOptions(128))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		res, err := d.Detect(context.Background(), s.Y[i*256:(i+1)*256])
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == StatusOK && s.TrueBreak[i] >= 0 && res.HasBreak() {
			got := res.BreakIndex + 128
			if got < s.TrueBreak[i] {
				t.Fatalf("pixel %d: break %d before injected %d", i, got, s.TrueBreak[i])
			}
		}
	}
	if _, err := d.Detect(context.Background(), make([]float64, 10)); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestDetectorBatchMatchesSingle(t *testing.T) {
	_, b := exampleScene(t, 50, 200, 100)
	d, err := NewDetector(200, DefaultOptions(100))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.DetectBatch(context.Background(), b, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.M; i++ {
		single, err := d.Detect(context.Background(), b.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if single.BreakIndex != batch[i].BreakIndex || single.Status != batch[i].Status {
			t.Fatalf("pixel %d: batch %+v != single %+v", i, batch[i], single)
		}
	}
}

func TestDetectorBatchStrategyAgree(t *testing.T) {
	_, b := exampleScene(t, 32, 160, 80)
	d, err := NewDetector(160, DefaultOptions(80))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.DetectBatch(context.Background(), b, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{StrategyOurs, StrategyRgTlEfSeq, StrategyFullEfSeq} {
		got, err := d.DetectBatch(context.Background(), b, BatchOptions{Strategy: st, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if ref[i].BreakIndex != got[i].BreakIndex {
				t.Fatalf("strategy %v pixel %d differs", st, i)
			}
		}
	}
	if _, err := d.DetectBatch(context.Background(), &Batch{M: 1, N: 5, Y: make([]float64, 5)}, BatchOptions{}); err == nil {
		t.Fatal("wrong batch length must fail")
	}
}

func TestMosumBoundary(t *testing.T) {
	d, _ := NewDetector(100, DefaultOptions(50))
	b0, err := d.MosumBoundary(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if b0 <= 0 {
		t.Fatal("boundary must be positive")
	}
}

func TestProcessCubeEndToEnd(t *testing.T) {
	spec := SceneSpec{
		Name: "cube-test", M: 24 * 24, N: 128, History: 64,
		NaNFrac: 0.4, Width: 24, BreakFrac: 0.3, BreakShift: -0.7, Seed: 72,
	}
	s, err := GenerateScene(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CubeFromFlat(24, 24, 128, s.Y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ProcessCube(context.Background(), c, DefaultOptions(64), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	total, neg := m.CountBreaks()
	if total == 0 || neg == 0 {
		t.Fatalf("expected detections: total=%d neg=%d", total, neg)
	}
	// Most detected breaks should be on truly-broken pixels.
	correct := 0
	for i, b := range m.Break {
		if b >= 0 && s.TrueBreak[i] >= 0 {
			correct++
		}
	}
	if total > 0 && float64(correct)/float64(total) < 0.7 {
		t.Fatalf("only %d/%d detections on injected pixels", correct, total)
	}
}

func TestSimulateGPUPublicAPI(t *testing.T) {
	_, b := exampleScene(t, 64, 128, 64)
	run, err := SimulateGPU(b, DefaultOptions(64), ProfileRTX2080Ti(), StrategyOurs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.KernelTime <= 0 || len(run.Kernels) == 0 {
		t.Fatal("simulation produced no kernel runs")
	}
	if len(run.Breaks) != 64 || len(run.Magnitudes) != 64 {
		t.Fatal("per-pixel results missing")
	}
	slow, err := SimulateGPU(b, DefaultOptions(64), ProfileTitanZ(), StrategyOurs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow.KernelTime <= run.KernelTime {
		t.Fatal("TITAN Z must model slower than 2080 Ti")
	}
}

func TestPresetScenes(t *testing.T) {
	names := PresetSceneNames()
	if len(names) < 8 {
		t.Fatalf("expected ≥8 presets, got %d", len(names))
	}
	spec, err := PresetScene("D2")
	if err != nil {
		t.Fatal(err)
	}
	if spec.M != 16384 || spec.N != 512 {
		t.Fatalf("D2 spec wrong: %+v", spec)
	}
	if _, err := PresetScene("bogus"); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestNewCubeHelpers(t *testing.T) {
	c, err := NewCube(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(c.At(0, 0, 0)) {
		t.Fatal("new cube must start NaN")
	}
	if _, err := CubeFromFlat(2, 2, 4, make([]float64, 3)); err == nil {
		t.Fatal("bad flat size must fail")
	}
	if _, err := ReadCubeFile("/nonexistent/cube.bfc"); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestProcessCubeStable(t *testing.T) {
	// A scene whose pixels carry a contaminated early history and NO
	// monitoring break: plain processing over-detects, ROC processing
	// should not.
	const W, H, N, n = 12, 12, 280, 200
	y := make([]float64, W*H*N)
	for i := 0; i < W*H; i++ {
		for t0 := 0; t0 < N; t0++ {
			v := 0.5 + 0.3*math.Sin(2*math.Pi*float64(t0+1)/23) +
				0.01*math.Sin(float64(i+7*t0))
			if t0 < 60 {
				v += 1.0
			}
			y[i*N+t0] = v
		}
	}
	c, err := CubeFromFlat(W, H, N, y)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(n)
	plain, err := ProcessCube(context.Background(), c, opt, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := ProcessCubeStable(context.Background(), c, opt, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := plain.CountBreaks()
	st, _ := stable.CountBreaks()
	if pt == 0 {
		t.Skip("contamination did not induce false breaks on this host seed")
	}
	if st >= pt {
		t.Fatalf("ROC processing should reduce false breaks: %d -> %d", pt, st)
	}
	if _, err := ProcessCubeStable(context.Background(), c, opt, 0.42, 0); err == nil {
		t.Fatal("bad level must fail")
	}
}

// --- the cube path against its oracle ---------------------------------------

// nanPayloads are the NaN encodings the empty dates are written with:
// every one of them is missing, to the mask and to DropEmptySlices alike.
var nanPayloads = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling
	math.Float64frombits(0xfff8000000000000), // negative quiet
	math.Float64frombits(0x7fffffffffffffff), // all payload bits
}

// sceneCube is a w×h cube of n dates from a synthetic scene whose
// missing values follow mask, with every date in empty blanked in every
// pixel (NaN payloads taken in turn).
func sceneCube(t *testing.T, w, h, n int, mask workload.MaskModel, nanFrac float64, seed int64, empty []int) *Cube {
	t.Helper()
	s, err := GenerateScene(SceneSpec{Name: "cube", M: w * h, N: n, History: n / 2, NaNFrac: nanFrac,
		Mask: mask, Width: w, BreakFrac: 0.3, BreakShift: -0.6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CubeFromFlat(w, h, n, s.Y)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range empty {
		for i := 0; i < c.Pixels(); i++ {
			c.Values[i*n+d] = nanPayloads[(i+d)%len(nanPayloads)]
		}
	}
	return c
}

// cubeOracle runs scalar Detect on every pixel of c.DropEmptySlices().
func cubeOracle(t *testing.T, c *Cube, opt Options) ([]Result, []int) {
	t.Helper()
	compact, kept, err := c.DropEmptySlices()
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.DesignFor(opt, compact.Dates)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, compact.Pixels())
	for i := range want {
		if want[i], err = core.Detect(compact.Series(i), x, opt); err != nil {
			t.Fatal(err)
		}
	}
	return want, kept
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func assertSameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		same := w.Status == g.Status && w.BreakIndex == g.BreakIndex &&
			w.ValidHistory == g.ValidHistory && w.Valid == g.Valid &&
			sameFloat(w.Sigma, g.Sigma) && sameFloat(w.MosumMean, g.MosumMean) &&
			len(w.Beta) == len(g.Beta)
		for j := 0; same && j < len(w.Beta); j++ {
			same = sameFloat(w.Beta[j], g.Beta[j])
		}
		if !same {
			t.Fatalf("%s pixel %d: %+v, want %+v", label, i, g, w)
		}
	}
}

func assertSameMap(t *testing.T, want, got *BreakMap, label string) {
	t.Helper()
	if got.Width != want.Width || got.Height != want.Height || got.MonitorLen != want.MonitorLen {
		t.Fatalf("%s: map %dx%d/%d, want %dx%d/%d", label,
			got.Width, got.Height, got.MonitorLen, want.Width, want.Height, want.MonitorLen)
	}
	for i := range want.Break {
		if got.Break[i] != want.Break[i] || !sameFloat(got.Magnitude[i], want.Magnitude[i]) {
			t.Fatalf("%s pixel %d: break %d magnitude %v, want %d %v", label, i,
				got.Break[i], got.Magnitude[i], want.Break[i], want.Magnitude[i])
		}
	}
}

func dateRange(lo, hi int) []int {
	var d []int
	for t := lo; t < hi; t++ {
		d = append(d, t)
	}
	return d
}

// TestProcessCubeDropEmptyMatchesOracle holds the copy-free empty-date
// removal to scalar Detect on the DropEmptySlices output, bit for bit,
// at every tile width and worker count: the kept values are the same
// numbers summed in the same order.
func TestProcessCubeDropEmptyMatchesOracle(t *testing.T) {
	odd := []int{0, 128} // 130 dates → 63: the kept dates cross two word boundaries
	for d := 1; d < 130; d += 2 {
		odd = append(odd, d)
	}
	for _, tc := range []struct {
		name       string
		n, history int
		mask       workload.MaskModel
		nanFrac    float64
		empty      []int
		inf        bool
	}{
		// Independent gaps at this density leave no date empty on their
		// own (checked below), so these cases control the empty dates.
		{"no-empty-dates", 150, 70, workload.MaskIID, 0.3, nil, false},
		{"history-boundary", 150, 60, workload.MaskIID, 0.3, dateRange(60, 63), false},
		{"word-crossing-130-to-63", 130, 30, workload.MaskIID, 0.3, odd, false},
		{"inf-is-a-value", 150, 60, workload.MaskIID, 0.3, []int{12, 80}, true},
		// Swath masks blank whole acquisition strips and leave empty
		// dates of their own among the ones blanked here.
		{"leading", 150, 50, workload.MaskSwath, 0.5, dateRange(0, 9), false},
		{"trailing", 150, 50, workload.MaskSwath, 0.5, dateRange(141, 150), false},
		{"inside-history", 150, 50, workload.MaskSwath, 0.5, []int{5, 17, 18, 19, 40}, false},
	} {
		c := sceneCube(t, 12, 10, tc.n, tc.mask, tc.nanFrac, 230, tc.empty)
		if tc.inf {
			// Date 12 holds nothing but one +Inf and stays populated;
			// other ±Inf observations sit in the history and monitoring
			// periods of single pixels.
			c.Values[5*tc.n+12] = math.Inf(1)
			c.Values[3*tc.n+20] = math.Inf(1)
			c.Values[7*tc.n+100] = math.Inf(-1)
		}
		opt := DefaultOptions(tc.history)
		want, wantKept := cubeOracle(t, c, opt)
		nominal := tc.n - len(tc.empty)
		if tc.inf {
			nominal++ // date 12
		}
		if tc.mask == workload.MaskIID && len(wantKept) != nominal {
			t.Fatalf("%s: %d dates kept, want %d: the scene left dates empty of its own", tc.name, len(wantKept), nominal)
		}
		if tc.name == "word-crossing-130-to-63" && len(wantKept) != 63 {
			t.Fatalf("%s: %d dates kept", tc.name, len(wantKept))
		}
		b, err := NewBatch(c.Pixels(), c.Dates, c.Values)
		if err != nil {
			t.Fatal(err)
		}
		for _, tw := range []int{1, 8, 64} {
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("%s/T=%d/w=%d", tc.name, tw, workers)
				got, kept, err := core.DetectPopulated(context.Background(), b, opt, core.BatchConfig{TileWidth: tw, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(kept, wantKept) {
					t.Fatalf("%s: kept %v, want %v", label, kept, wantKept)
				}
				assertSameResults(t, want, got, label)
			}
		}
		m, err := ProcessCube(context.Background(), c, opt, true, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantMap := cube.NewBreakMap(c.Width, c.Height, len(wantKept)-opt.History)
		for i, r := range want {
			wantMap.Break[i] = r.BreakIndex
			if r.Status == StatusOK {
				wantMap.Magnitude[i] = r.MosumMean
			}
		}
		assertSameMap(t, wantMap, m, tc.name)
	}
}

// TestProcessCubeAllEmpty: a cube with no populated date fails as
// DropEmptySlices does, whatever NaN encodes the gaps.
func TestProcessCubeAllEmpty(t *testing.T) {
	c := sceneCube(t, 4, 3, 40, workload.MaskIID, 0.3, 231, dateRange(0, 40))
	_, _, want := c.DropEmptySlices()
	if want == nil {
		t.Fatal("DropEmptySlices accepted an all-empty cube")
	}
	_, err := ProcessCube(context.Background(), c, DefaultOptions(20), true, 0)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestProcessCubeEmptyDatesInvisible: inserting all-NaN dates anywhere
// never changes the break map when empty dates are dropped.
func TestProcessCubeEmptyDatesInvisible(t *testing.T) {
	const w, h, n = 12, 10, 120
	rng := rand.New(rand.NewSource(232))
	base := sceneCube(t, w, h, n, workload.MaskSwath, 0.5, 232, nil)
	opt := DefaultOptions(50)
	want, err := ProcessCube(context.Background(), base, opt, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		inserted := 1 + rng.Intn(70)
		total := n + inserted
		isNew := make([]bool, total)
		for _, d := range rng.Perm(total)[:inserted] {
			isNew[d] = true
		}
		values := make([]float64, w*h*total)
		for i := 0; i < w*h; i++ {
			src := base.Series(i)
			for d := 0; d < total; d++ {
				if isNew[d] {
					values[i*total+d] = nanPayloads[rng.Intn(len(nanPayloads))]
				} else {
					values[i*total+d], src = src[0], src[1:]
				}
			}
		}
		c, err := CubeFromFlat(w, h, total, values)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProcessCube(context.Background(), c, opt, true, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMap(t, want, got, fmt.Sprintf("trial %d (+%d empty dates)", trial, inserted))
	}
}

// TestPopulatedDatesMatchDropEmptySlices: over random cubes — ragged
// sizes, empty dates drawn per date, sparse values, ±Inf — the kept-date
// list of the tiled path is DropEmptySlices's list.
func TestPopulatedDatesMatchDropEmptySlices(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	for trial := 0; trial < 200; trial++ {
		w, h, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(200)
		pEmpty, pMissing := rng.Float64()*0.5, rng.Float64()
		c, err := NewCube(w, h, n)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < n; d++ {
			if rng.Float64() < pEmpty {
				continue
			}
			for i := 0; i < c.Pixels(); i++ {
				switch r := rng.Float64(); {
				case r < pMissing:
					c.Values[i*n+d] = nanPayloads[rng.Intn(len(nanPayloads))]
				case r < pMissing+0.01:
					c.Values[i*n+d] = math.Inf(1 - 2*rng.Intn(2))
				default:
					c.Values[i*n+d] = rng.NormFloat64()
				}
			}
		}
		_, want, wantErr := c.DropEmptySlices()
		b, err := NewBatch(c.Pixels(), n, c.Values)
		if err != nil {
			t.Fatal(err)
		}
		// History 1 is valid for any two kept dates; with K = 8 every
		// pixel is then unfittable, which is all this property needs.
		_, kept, err := core.DetectPopulated(context.Background(), b, DefaultOptions(1), core.BatchConfig{Workers: 1 + trial%3})
		switch {
		case wantErr != nil:
			if kept != nil || err != nil {
				t.Fatalf("trial %d: all-empty cube gave kept %v, err %v", trial, kept, err)
			}
		case len(want) == 1:
			if err == nil {
				t.Fatalf("trial %d: one kept date must leave no monitoring period", trial)
			}
		case err != nil:
			t.Fatalf("trial %d: %v", trial, err)
		case !slices.Equal(kept, want):
			t.Fatalf("trial %d (%dx%dx%d): kept %v, want %v", trial, w, h, n, kept, want)
		}
	}
}

// countdownCtx reports context.Canceled from its (left+1)-th Err call on,
// so sweeping left walks the cancellation through every pass of a call.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestProcessCubeCancellation: a pre-cancelled context schedules no
// steal unit on any cube path, and a context cancelled anywhere inside
// the mask, OR, compaction, class or tile pass yields either the whole,
// correct map or (nil, context.Canceled) — with no goroutine left behind.
func TestProcessCubeCancellation(t *testing.T) {
	leakcheck.Check(t)
	c := sceneCube(t, 20, 20, 150, workload.MaskSwath, 0.5, 234, dateRange(0, 5))
	opt := DefaultOptions(50)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		run  func() (*BreakMap, error)
	}{
		{"drop-empty", func() (*BreakMap, error) { return ProcessCube(ctx, c, opt, true, 2) }},
		{"all-dates", func() (*BreakMap, error) { return ProcessCube(ctx, c, opt, false, 2) }},
		{"stable", func() (*BreakMap, error) { return ProcessCubeStable(ctx, c, opt, 0.05, 2) }},
	} {
		ran := sched.StatBlocksRun.Value()
		m, err := tc.run()
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("%s: map %v, err %v; want context.Canceled", tc.name, m, err)
		}
		if d := sched.StatBlocksRun.Value() - ran; d != 0 {
			t.Fatalf("%s: %d steal units ran for a pre-cancelled context", tc.name, d)
		}
	}

	want, err := ProcessCube(context.Background(), c, opt, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, completed := 0, 0
	for left := int64(0); left < 200; left += 4 {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(left)
		m, err := ProcessCube(ctx, c, opt, true, 2)
		switch {
		case errors.Is(err, context.Canceled):
			cancelled++
			if m != nil {
				t.Fatalf("left=%d: map returned with context.Canceled", left)
			}
		case err != nil:
			t.Fatalf("left=%d: %v", left, err)
		default:
			completed++
			assertSameMap(t, want, m, fmt.Sprintf("left=%d", left))
		}
	}
	if cancelled == 0 || completed == 0 {
		t.Fatalf("sweep saw %d cancelled and %d completed calls; want both", cancelled, completed)
	}
}
