package kernels

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"bfast/internal/core"
	"bfast/internal/gpusim"
	"bfast/internal/linalg"
	"bfast/internal/series"
	"bfast/internal/workload"
)

func testBatch(t *testing.T, m, n, hist int, nanFrac float64, breakFrac float64, seed int64) (*Batch32, *workload.Dataset) {
	t.Helper()
	spec := workload.Spec{
		Name: "test", M: m, N: n, History: hist, NaNFrac: nanFrac,
		BreakFrac: breakFrac, Seed: seed,
	}
	ds, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromFloat64(m, n, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	return b, ds
}

func TestBatch32Validation(t *testing.T) {
	if _, err := NewBatch32(2, 3, make([]float32, 5)); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := FromFloat64(2, 3, make([]float64, 5)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestBatch32Sample(t *testing.T) {
	y := make([]float32, 100*4)
	for i := range y {
		y[i] = float32(i)
	}
	b, _ := NewBatch32(100, 4, y)
	s, scale := b.Sample(25)
	if s.M != 25 || scale != 4 {
		t.Fatalf("sample M=%d scale=%v, want 25, 4", s.M, scale)
	}
	// Row i of the sample is row 4i of the original.
	for i := 0; i < s.M; i++ {
		if s.Row(i)[0] != b.Row(4 * i)[0] {
			t.Fatalf("sample row %d mismatched", i)
		}
	}
	full, scale1 := b.Sample(0)
	if full != b || scale1 != 1 {
		t.Fatal("Sample(0) must return the batch itself")
	}
	full, scale1 = b.Sample(200)
	if full != b || scale1 != 1 {
		t.Fatal("Sample(>M) must return the batch itself")
	}
}

func TestMakeDesign32MatchesFloat64(t *testing.T) {
	d32, err := MakeDesign32(64, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	d64, _ := series.MakeDesign(64, 3, 23)
	for i := range d32.Data {
		if d32.Data[i] != float32(d64.Data[i]) {
			t.Fatalf("design mismatch at %d", i)
		}
	}
	if _, err := MakeDesign32(0, 3, 23); err == nil {
		t.Fatal("expected design error")
	}
}

func TestMatMulVariantsBitIdentical(t *testing.T) {
	b, _ := testBatch(t, 97, 128, 64, 0.5, 0, 11)
	x, _ := MakeDesign32(128, 3, 23)
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	ref, _, err := BatchNormalMatrices(dev, MMNaive, x, b, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []MatMulVariant{MMRegisterTiled, MMBlockTiled} {
		got, _, err := BatchNormalMatrices(dev, v, x, b, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%v differs from naive at %d: %v vs %v", v, i, got[i], ref[i])
			}
		}
	}
}

func TestMatMulMatchesFloat64Reference(t *testing.T) {
	b, ds := testBatch(t, 40, 96, 48, 0.6, 0, 12)
	x64, _ := series.MakeDesign(96, 3, 23)
	x32, _ := MakeDesign32(96, 3, 23)
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	got, _, err := BatchNormalMatrices(dev, MMRegisterTiled, x32, b, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	K := 8
	xh := linalg.NewMatrix(K, 48)
	for j := 0; j < K; j++ {
		copy(xh.Data[j*48:(j+1)*48], x64.Data[j*96:j*96+48])
	}
	for i := 0; i < 40; i++ {
		y := ds.Y[i*96 : i*96+48]
		want := linalg.MaskedCrossProduct(xh, y)
		for p := 0; p < K*K; p++ {
			w := want.Data[p]
			g := float64(got[i*K*K+p])
			if math.Abs(w-g) > 1e-2*math.Max(1, math.Abs(w)) {
				t.Fatalf("pixel %d elem %d: f32 %v vs f64 %v", i, p, g, w)
			}
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	b, _ := testBatch(t, 4, 32, 16, 0.2, 0, 13)
	x, _ := MakeDesign32(32, 3, 23)
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	if _, _, err := BatchNormalMatrices(dev, MMNaive, x, b, 0, 1); err == nil {
		t.Fatal("expected error for history 0")
	}
	if _, _, err := BatchNormalMatrices(dev, MMNaive, x, b, 33, 1); err == nil {
		t.Fatal("expected error for history > N")
	}
	if _, _, err := BatchNormalMatrices(dev, MatMulVariant(9), x, b, 16, 1); err == nil {
		t.Fatal("expected error for unknown variant")
	}
}

func TestBatchInvertMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const K = 8
	const M = 25
	mats := make([]float32, M*K*K)
	var refs []*linalg.Matrix
	for i := 0; i < M; i++ {
		// SPD matrices like BFAST normal matrices.
		a := linalg.NewMatrix(K, K)
		for r := 0; r < K; r++ {
			for c := 0; c < K; c++ {
				a.Set(r, c, rng.NormFloat64())
			}
		}
		spd := linalg.MatMul(a, a.Transpose())
		for d := 0; d < K; d++ {
			spd.Set(d, d, spd.At(d, d)+K)
		}
		refs = append(refs, spd)
		for p := 0; p < K*K; p++ {
			mats[i*K*K+p] = float32(spd.Data[p])
		}
	}
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	got, _, err := BatchInvert(dev, InvShared, mats, K, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < M; i++ {
		want, err := linalg.InvertGaussJordan(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < K*K; p++ {
			w := want.Data[p]
			g := float64(got[i*K*K+p])
			if math.Abs(w-g) > 1e-3*math.Max(1, math.Abs(w)) {
				t.Fatalf("matrix %d elem %d: f32 %v vs f64 %v", i, p, g, w)
			}
		}
	}
}

func TestBatchInvertVariantsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const K = 4
	mats := make([]float32, 10*K*K)
	for i := range mats {
		mats[i] = rng.Float32()
	}
	for i := 0; i < 10; i++ {
		for d := 0; d < K; d++ {
			mats[i*K*K+d*K+d] += K
		}
	}
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	a, _, _ := BatchInvert(dev, InvShared, mats, K, 1)
	b, _, _ := BatchInvert(dev, InvGlobal, mats, K, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("variants must be bit-identical")
		}
	}
}

func TestBatchInvertErrors(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	if _, _, err := BatchInvert(dev, InvShared, make([]float32, 7), 2, 1); err == nil {
		t.Fatal("expected length error")
	}
	if _, _, err := BatchInvert(dev, InvVariant(9), make([]float32, 8), 2, 1); err == nil {
		t.Fatal("expected variant error")
	}
}

func TestSimulateAppMatchesCoreReference(t *testing.T) {
	const M, N, n = 96, 256, 128
	b, ds := testBatch(t, M, N, n, 0.5, 0.4, 16)
	opt := core.DefaultOptions(n)
	cb, _ := core.NewBatch(M, N, ds.Y)
	want, err := core.DetectBatch(context.Background(), cb, opt, core.BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyOurs, StrategyRgTlEfSeq, StrategyFullEfSeq} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		got, err := SimulateApp(dev, b, opt, strat, 0)
		if err != nil {
			t.Fatal(err)
		}
		agree := 0
		for i := range want {
			wb := want[i].BreakIndex
			gb := got.Breaks[i]
			if wb == gb {
				agree++
				if want[i].Status == core.StatusOK && got.Fittable[i] {
					d := float64(got.Means[i]) - want[i].MosumMean
					if math.Abs(d) > 2e-2 {
						t.Fatalf("%v pixel %d: MOSUM mean f32 %v vs f64 %v",
							strat, i, got.Means[i], want[i].MosumMean)
					}
				}
			}
		}
		// float32 vs float64 can flip borderline boundary crossings on a
		// few pixels; demand ≥ 95% agreement on break indices.
		if agree < M*95/100 {
			t.Fatalf("%v: only %d/%d pixels agree with reference", strat, agree, M)
		}
	}
}

func TestSimulateAppStrategiesIdenticalResults(t *testing.T) {
	const M, N, n = 64, 200, 100
	b, _ := testBatch(t, M, N, n, 0.6, 0.5, 17)
	opt := core.DefaultOptions(n)
	var ref *AppResult
	for _, strat := range []Strategy{StrategyOurs, StrategyRgTlEfSeq, StrategyFullEfSeq} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		got, err := SimulateApp(dev, b, opt, strat, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := 0; i < M; i++ {
			if got.Breaks[i] != ref.Breaks[i] {
				t.Fatalf("%v pixel %d: break %d vs %d", strat, i, got.Breaks[i], ref.Breaks[i])
			}
			gm, rm := got.Means[i], ref.Means[i]
			if gm != rm && !(isNaN32(gm) && isNaN32(rm)) {
				t.Fatalf("%v pixel %d: mean %v vs %v", strat, i, gm, rm)
			}
		}
	}
}

func TestSimulateAppSampling(t *testing.T) {
	const M, N, n = 256, 128, 64
	b, _ := testBatch(t, M, N, n, 0.5, 0, 18)
	opt := core.DefaultOptions(n)
	devFull := gpusim.NewDevice(gpusim.RTX2080Ti())
	full, err := SimulateApp(devFull, b, opt, StrategyOurs, 0)
	if err != nil {
		t.Fatal(err)
	}
	devSamp := gpusim.NewDevice(gpusim.RTX2080Ti())
	samp, err := SimulateApp(devSamp, b, opt, StrategyOurs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(samp.Breaks) != 64 {
		t.Fatalf("sampled result covers %d pixels, want 64", len(samp.Breaks))
	}
	// Scaled counters must approximate the full run (identical here, since
	// the charges depend only on padded sizes).
	rf := full.KernelTime.Seconds()
	rs := samp.KernelTime.Seconds()
	if math.Abs(rf-rs) > 0.12*rf {
		t.Fatalf("sampled kernel time %v too far from full %v", samp.KernelTime, full.KernelTime)
	}
}

func TestSimulateAppErrors(t *testing.T) {
	b, _ := testBatch(t, 8, 64, 32, 0.2, 0, 19)
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	bad := core.DefaultOptions(64) // history == N
	if _, err := SimulateApp(dev, b, bad, StrategyOurs, 0); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := SimulateApp(dev, b, core.DefaultOptions(32), Strategy(9), 0); err == nil {
		t.Fatal("expected strategy error")
	}
}

func TestVariantStrings(t *testing.T) {
	if MMRegisterTiled.String() != "register-tiled" || MMBlockTiled.String() != "block-tiled" || MMNaive.String() != "naive" {
		t.Fatal("MatMulVariant.String broken")
	}
	if InvShared.String() != "shared-mem" || InvGlobal.String() != "global-mem" {
		t.Fatal("InvVariant.String broken")
	}
	if MatMulVariant(7).String() == "" || InvVariant(7).String() == "" {
		t.Fatal("unknown variants must render")
	}
}

// TestFig6Ordering asserts the qualitative claim of Fig. 6: register tiling
// beats block tiling and the naive kernel by a factor in the paper's
// reported neighbourhood, and block tiling modestly beats naive.
func TestFig6Ordering(t *testing.T) {
	b, _ := testBatch(t, 2048, 512, 256, 0.5, 0, 20)
	x, _ := MakeDesign32(512, 3, 23)
	times := map[MatMulVariant]float64{}
	for _, v := range []MatMulVariant{MMRegisterTiled, MMBlockTiled, MMNaive} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		_, run, err := BatchNormalMatrices(dev, v, x, b, 256, 8)
		if err != nil {
			t.Fatal(err)
		}
		times[v] = run.Time.Seconds()
	}
	rb := times[MMBlockTiled] / times[MMRegisterTiled]
	rn := times[MMNaive] / times[MMRegisterTiled]
	if rb < 1.5 || rb > 6 {
		t.Fatalf("register/block speed-up %.2f outside the paper's 2-3× neighbourhood", rb)
	}
	if rn < rb {
		t.Fatalf("naive (%.2f×) should not beat block tiling (%.2f×)", rn, rb)
	}
}

// TestFig7Ordering asserts the qualitative claim of Fig. 7: the
// shared-memory inversion is 5-6× faster than the global-memory version.
func TestFig7Ordering(t *testing.T) {
	b, _ := testBatch(t, 2048, 256, 128, 0.5, 0, 21)
	x, _ := MakeDesign32(256, 3, 23)
	normal := make([]float32, b.M*8*8)
	mmUntiledExec(x, b, 128, normal)
	dev := gpusim.NewDevice(gpusim.RTX2080Ti())
	_, shared, err := BatchInvert(dev, InvShared, normal, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, global, err := BatchInvert(dev, InvGlobal, normal, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := global.Time.Seconds() / shared.Time.Seconds()
	if ratio < 3 || ratio > 10 {
		t.Fatalf("shared-mem inversion speed-up %.2f outside the paper's 5-6× neighbourhood", ratio)
	}
}

// TestFig8Ordering asserts the qualitative claims of Fig. 8: Ours beats
// RgTl-EfSeq by 2-3x, which beats Full-EfSeq by 1.5-2x.
func TestFig8Ordering(t *testing.T) {
	b, _ := testBatch(t, 2048, 1024, 512, 0.5, 0, 22)
	opt := core.DefaultOptions(512)
	times := map[Strategy]float64{}
	for _, s := range []Strategy{StrategyOurs, StrategyRgTlEfSeq, StrategyFullEfSeq} {
		dev := gpusim.NewDevice(gpusim.RTX2080Ti())
		res, err := SimulateApp(dev, b, opt, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		times[s] = res.KernelTime.Seconds()
	}
	r1 := times[StrategyRgTlEfSeq] / times[StrategyOurs]
	r2 := times[StrategyFullEfSeq] / times[StrategyRgTlEfSeq]
	if r1 < 1.5 || r1 > 4 {
		t.Fatalf("Ours over RgTl-EfSeq = %.2f, outside the paper's 2-3× neighbourhood", r1)
	}
	if r2 < 1.2 || r2 > 3 {
		t.Fatalf("RgTl over Full-EfSeq = %.2f, outside the paper's 1.5-2× neighbourhood", r2)
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyOurs.String() != "ours" ||
		StrategyRgTlEfSeq.String() != "rgtl-efseq" ||
		StrategyFullEfSeq.String() != "full-efseq" {
		t.Fatal("Strategy.String broken")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy must render")
	}
}
