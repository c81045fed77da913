package tile

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bfast/internal/linalg"
	"bfast/internal/series"
)

// randomDesign returns a K×N design of normal draws.
func randomDesign(rng *rand.Rand, k, n int) *series.DesignMatrix {
	x := &series.DesignMatrix{K: k, N: n, Data: make([]float64, k*n)}
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// historyOf copies the first n dates of x into a K×n matrix.
func historyOf(x *series.DesignMatrix, n int) *linalg.Matrix {
	xh := linalg.NewMatrix(x.K, n)
	for j := 0; j < x.K; j++ {
		copy(xh.Data[j*n:(j+1)*n], x.Data[j*x.N:j*x.N+n])
	}
	return xh
}

// scalarResiduals is core.Detect's residual loop: over the valid dates of
// y, ascending, y − Σ_j x_j·β_j with the prediction summed j-ascending.
func scalarResiduals(x *series.DesignMatrix, y, beta []float64) []float64 {
	var r []float64
	for t, v := range y {
		if math.IsNaN(v) {
			continue
		}
		var pred float64
		for j := 0; j < x.K; j++ {
			pred += x.Data[j*x.N+t] * beta[j]
		}
		r = append(r, v-pred)
	}
	return r
}

// checkLane holds one lane's kernels to the scalar oracles bit for bit:
// the compaction to the valid dates and values of y, LaneMatVec to
// linalg.MaskedMatVec over the history prefix, and LaneResiduals to
// scalarResiduals. dates and r are the lane's buffers, rhs a
// lane-interleaved K×T buffer; all may hold anything on entry.
func checkLane(t *testing.T, pp *Pairs, x *series.DesignMatrix, n int, y, beta []float64, dates []int32, r, rhs []float64, p, T int) {
	t.Helper()
	N := len(y)
	words := make([]uint64, series.MaskWords(N))
	series.FillMask(y, words)
	c := Compact(y, nil, words, N, r, dates)
	want := series.AppendValidIndices(nil, words, N)
	if c != len(want) {
		t.Fatalf("K=%d lane %d: compacted %d dates, want %d", x.K, p, c, len(want))
	}
	nh := 0
	for i, d := range want {
		if int(dates[i]) != d || !sameBits(r[i], y[d]) {
			t.Fatalf("K=%d lane %d entry %d: date %d value %v, want %d %v", x.K, p, i, dates[i], r[i], d, y[d])
		}
		if d < n {
			nh++
		}
	}
	pp.LaneMatVec(dates[:nh], r, p, T, rhs)
	for j, w := range linalg.MaskedMatVec(historyOf(x, n), y[:n]) {
		if !sameBits(rhs[j*T+p], w) {
			t.Fatalf("K=%d lane %d row %d: right-hand side %v, want %v", x.K, p, j, rhs[j*T+p], w)
		}
	}
	lb := make([]float64, PadK(x.K))
	copy(lb, beta)
	pp.LaneResiduals(dates[:c], r, lb)
	for i, w := range scalarResiduals(x, y, beta) {
		if !sameBits(r[i], w) {
			t.Fatalf("K=%d lane %d residual %d: %v, want %v", x.K, p, i, r[i], w)
		}
	}
}

// TestKernelsMatchScalarOracle holds the lane kernels and the tile
// adapters to the scalar oracles, lane by lane and bit for bit, over a
// history of n dates that is not a multiple of 64 and K from one
// regressor to three blocks of eight: the per-lane normal matrices
// (Pairs.Normals and the CrossProduct adapter) to
// linalg.MaskedCrossProduct, the right-hand sides (LaneMatVec and the
// MatVecHistory adapter) to linalg.MaskedMatVec, and the residuals
// (LaneResiduals and the Residuals adapter) to core.Detect's loop. The
// tiles hold an all-invalid lane, an all-valid lane carrying ±Inf and
// −0 observations and i.i.d.-masked lanes; every buffer starts poisoned
// with NaN and ±Inf, and the time-major tiles are gathered one after
// another into one such buffer.
func TestKernelsMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const N, n = 150, 97
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	fill := func(buf []float64) {
		for i := range buf {
			buf[i] = poison[i%len(poison)]
		}
	}
	for _, k := range []int{1, 2, 7, 8, 9, 16, 22} {
		x := randomDesign(rng, k, N)
		xh := historyOf(x, n)
		pp := GetPairs(x, n)
		tiles := map[int]*Data{8: NewData(8, N), 16: NewData(16, N)}
		for _, d := range tiles {
			fill(d.Y)
		}
		for _, c := range []struct{ tw, p int }{{8, 1}, {8, 5}, {8, 8}, {16, 13}, {8, 8}} {
			tw, p := c.tw, c.p
			d, sc := tiles[tw], NewSchedule(N)
			nrm, wrap := make([]float64, k*k*tw), make([]float64, k*k*tw)
			rhs, rhsWrap, beta := make([]float64, k*tw), make([]float64, k*tw), make([]float64, k*tw)
			r, rWrap := make([]float64, tw*N), make([]float64, tw*N)
			ix, ixWrap := make([]int32, tw*N), make([]int32, tw*N)
			nVal := make([]int, tw)
			for _, buf := range [][]float64{nrm, wrap, rhs, rhsWrap, r, rWrap} {
				fill(buf)
			}
			for i := range ix {
				ix[i] = int32(rng.Intn(N))
			}
			for i := range beta {
				beta[i] = rng.NormFloat64()
			}
			// Pixel 0 is all-NaN, pixel 1 all-valid (randomScene).
			y := randomScene(rng, p, N, 0.5)
			if p > 1 {
				y[1*N+3], y[1*N+40], y[1*N+120] = math.Inf(1), math.Inf(-1), math.Copysign(0, -1)
			}
			mask := series.NewBatchMask(p, N, y)
			idx := make([]int, p)
			for i := range idx {
				idx[i] = i
			}
			d.Gather(y, mask, idx)
			sc.Build(d)
			dates := make([][]int32, p)
			for l := range dates {
				dates[l] = make([]int32, n)
				dates[l] = dates[l][:CompactDates(mask.Row(l), n, dates[l])]
			}
			pp.Normals(dates, tw, nrm)
			CrossProduct(xh, d, sc, wrap)
			MatVecHistory(xh, d, sc, rhsWrap)
			Residuals(x, d, sc, beta, rWrap, ixWrap, nVal)
			for l := range idx {
				row := y[l*N : (l+1)*N]
				for e, w := range linalg.MaskedCrossProduct(xh, row[:n]).Data {
					if !sameBits(nrm[e*tw+l], w) || !sameBits(wrap[e*tw+l], w) {
						t.Fatalf("K=%d T=%d P=%d lane %d entry %d: normal %v, adapter %v, want %v",
							k, tw, p, l, e, nrm[e*tw+l], wrap[e*tw+l], w)
					}
				}
				for j, w := range linalg.MaskedMatVec(xh, row[:n]) {
					if !sameBits(rhsWrap[j*tw+l], w) {
						t.Fatalf("K=%d T=%d P=%d lane %d row %d: adapter right-hand side %v, want %v", k, tw, p, l, j, rhsWrap[j*tw+l], w)
					}
				}
				lb := make([]float64, k)
				for j := range lb {
					lb[j] = beta[j*tw+l]
				}
				want := scalarResiduals(x, row, lb)
				if nVal[l] != len(want) {
					t.Fatalf("K=%d T=%d P=%d lane %d: adapter counted %d residuals, want %d", k, tw, p, l, nVal[l], len(want))
				}
				for i, w := range want {
					if !sameBits(rWrap[l*N+i], w) {
						t.Fatalf("K=%d T=%d P=%d lane %d residual %d: adapter %v, want %v", k, tw, p, l, i, rWrap[l*N+i], w)
					}
				}
				checkLane(t, pp, x, n, row, lb, ix[l*N:(l+1)*N], r[l*N:(l+1)*N], rhs, l, tw)
			}
		}
		pp.Release()
	}
}

// TestCompactThroughDateList: compacting a lane through a date list
// (Compact with src) yields exactly what compacting a copy of the batch
// holding only the listed dates does, and both match the valid dates
// and values of that copy.
func TestCompactThroughDateList(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const m, n = 21, 150
	y := randomScene(rng, m, n, 0.4)
	var list []int
	for d := 0; d < n; d++ {
		if rng.Intn(3) != 0 {
			list = append(list, d)
		}
	}
	k := len(list)
	compact := make([]float64, m*k)
	for i := 0; i < m; i++ {
		for j, d := range list {
			compact[i*k+j] = y[i*n+d]
		}
	}
	mask := series.NewBatchMask(m, k, compact)
	got, want := make([]float64, k), make([]float64, k)
	gotIx, wantIx := make([]int32, k), make([]int32, k)
	for i := 0; i < m; i++ {
		c := Compact(y[i*n:(i+1)*n], list, mask.Row(i), k, got, gotIx)
		cw := Compact(compact[i*k:(i+1)*k], nil, mask.Row(i), k, want, wantIx)
		valid := series.AppendValidIndices(nil, mask.Row(i), k)
		if c != cw || c != len(valid) {
			t.Fatalf("pixel %d: %d dates through the list, %d from the copy, want %d", i, c, cw, len(valid))
		}
		for e, d := range valid {
			if int(gotIx[e]) != d || int(wantIx[e]) != d || !sameBits(got[e], compact[i*k+d]) || !sameBits(want[e], got[e]) {
				t.Fatalf("pixel %d entry %d: dates %d/%d values %v/%v, want %d %v",
					i, e, gotIx[e], wantIx[e], got[e], want[e], d, compact[i*k+d])
			}
		}
	}
}

// FuzzLaneKernels holds one lane's compaction, right-hand side and
// residuals to the scalar oracles (checkLane) for a random K in 1..22,
// history n ≤ N ≤ 200, validity bits taken from the fuzzed mask words
// and values drawn from ±Inf, ±0, denormals and normals.
func FuzzLaneKernels(f *testing.F) {
	f.Add(uint8(7), uint8(60), uint8(130), uint64(0xf0f0f0f0f0f0f0f0), uint64(0xffffffffffffffff), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint64(1), uint64(0), int64(2))
	f.Add(uint8(21), uint8(199), uint8(199), uint64(0x5555555555555555), uint64(0xaaaaaaaaaaaaaaaa), int64(3))
	f.Fuzz(func(t *testing.T, kb, nb, Nb uint8, w0, w1 uint64, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kb)%22
		N := 1 + int(Nb)%200
		n := 1 + int(nb)%N
		specials := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			5e-324, -3 * 5e-324, math.SmallestNonzeroFloat64 * 1e10}
		value := func() float64 {
			if rng.Intn(4) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		}
		x := randomDesign(rng, k, N)
		for i := range x.Data {
			if rng.Intn(8) == 0 {
				x.Data[i] = value()
			}
		}
		y := make([]float64, N)
		words := [4]uint64{w0, w1, w0 ^ w1, ^w0}
		for i := range y {
			if words[i/64]>>uint(i%64)&1 == 0 {
				y[i] = math.NaN()
			} else {
				y[i] = value()
			}
		}
		beta := make([]float64, k)
		for j := range beta {
			beta[j] = value()
		}
		const T = 8
		p := rng.Intn(T)
		rhs, r, dates := make([]float64, k*T), make([]float64, N), make([]int32, N)
		pp := GetPairs(x, n)
		defer pp.Release()
		checkLane(t, pp, x, n, y, beta, dates, r, rhs, p, T)
	})
}

// TestFillRefillsInPlace: Fill into a Pairs that held another shape's
// tables — longer, shorter, another K, no history — gives exactly the
// tables a fresh Pairs gets, of the length TablesLen reports.
func TestFillRefillsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var reused Pairs
	for _, sh := range []struct{ k, n, nd int }{
		{8, 114, 228}, {22, 60, 300}, {3, 10, 20}, {8, 114, 229}, {9, 0, 50}, {1, 5, 6},
	} {
		x := randomDesign(rng, sh.k, sh.nd)
		var fresh Pairs
		fresh.Fill(x, sh.n)
		reused.Fill(x, sh.n)
		if reused.k != fresh.k || reused.n != fresh.n || reused.nd != fresh.nd ||
			reused.blocks != fresh.blocks || reused.xBlocks != fresh.xBlocks ||
			!slices.Equal(reused.xx, fresh.xx) || !slices.Equal(reused.xt, fresh.xt) || !slices.Equal(reused.at, fresh.at) {
			t.Fatalf("K=%d n=%d N=%d: refilled tables differ from fresh ones", sh.k, sh.n, sh.nd)
		}
		if got, want := len(fresh.xx)+len(fresh.xt), TablesLen(sh.k, sh.n, sh.nd); got != want {
			t.Fatalf("K=%d n=%d N=%d: tables hold %d float64s, TablesLen says %d", sh.k, sh.n, sh.nd, got, want)
		}
	}
}

// BenchmarkLaneKernels runs a tile's per-lane kernels — compaction,
// right-hand side and residuals — over eight i.i.d.-masked lanes at
// K = 8 and a 512-date series with a 256-date history.
func BenchmarkLaneKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const k, N, n, T = 8, 512, 256, 8
	x := randomDesign(rng, k, N)
	y := randomScene(rng, T, N, 0.5)
	mask := series.NewBatchMask(T, N, y)
	pp := GetPairs(x, n)
	defer pp.Release()
	r, ix, rhs := make([]float64, T*N), make([]int32, T*N), make([]float64, k*T)
	beta := make([]float64, PadK(k))
	for j := 0; j < k; j++ {
		beta[j] = rng.NormFloat64()
	}
	hist := make([]int, T)
	for p := range hist {
		hist[p] = series.CountBits(mask.Row(p), n)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for p := 0; p < T; p++ {
			lr, lix := r[p*N:(p+1)*N], ix[p*N:(p+1)*N]
			c := Compact(y[p*N:(p+1)*N], nil, mask.Row(p), N, lr, lix)
			pp.LaneMatVec(lix[:hist[p]], lr, p, T, rhs)
			pp.LaneResiduals(lix[:c], lr, beta)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
