package tile

import (
	"fmt"

	"bfast/internal/linalg"
	"bfast/internal/series"
)

// This file holds the tile kernels: the history matrix-vector product
// and the residual pass, which sweep the gathered tile register-blocked,
// and the per-lane normal matrix (pairs.go), which sums a table of design
// products over one lane's valid dates. Every lane accumulates over its
// valid dates in increasing date order — the same order as scalar
// core.Detect — so every lane's floating-point sequence, and hence its
// result, is bit-identical to that oracle.
//
// The kernels are shaped for what gc will actually emit, not for an
// auto-vectorizer it doesn't have:
//
//   - No lane branches. Gather zero-fills the masked slots of a partial
//     date, so the mat-vec runs one dense loop over every non-empty
//     segment of the Schedule: a masked lane adds x·(+0) = ±0 to an
//     accumulator that starts at +0 and is therefore never −0, and
//     a ± 0 == a bit for bit. The residual pass stores every lane's
//     residual and date unconditionally and advances the lane's count by
//     its mask bit, so a masked date is overwritten by the next valid one.
//   - The lane dimension is walked in blocks of eight. A block's
//     accumulators live in eight named float64 locals — gc register-
//     allocates scalars but never arrays — so the date loop is
//     load/FLOP-only with no accumulator store traffic, and the live
//     working set per sweep is bounded (lane-blocking is the cache
//     blocking: a block's accumulators and the design rows it streams
//     stay L1-resident across the whole date sweep).
//   - Fixed-stride subslices rebound as s2 = s2[:len(s1)], the idiom gc's
//     prove pass needs to drop bounds checks from the inner loops.
//   - The hot 8-lane mat-vec helper lives in kernels_lane8.go and unrolls
//     dates by pairs.
//   - Every block is a full eight lanes: Gather pads a tile of P pixels
//     to ⌈P/8⌉·8 lanes with +0 slots under a zero mask bit, as the paper
//     pads each batch to its maximal size. A padding lane's outputs are
//     never read, and the real lanes keep their own accumulators.

// CrossProduct computes the K×K normal matrix X_h·X_hᵀ of every lane over
// the first xh.Cols dates, writing lane-interleaved output:
// out[(j1*K+j2)*T + p] is lane p's element (j1, j2). xh is K×n with
// n <= d.N; sc must be built from d; out must have K*K*d.T entries.
//
// It reads each lane's valid dates off the schedule and runs
// Pairs.Normals over a table filled for this call; the detector calls
// Pairs.Normals directly, with one table per batch.
func CrossProduct(xh *linalg.Matrix, d *Data, sc *Schedule, out []float64) {
	k, n, T := xh.Rows, xh.Cols, d.T
	if n > d.N {
		panic(fmt.Sprintf("tile: cross product over %d dates on a %d-date tile", n, d.N))
	}
	if len(out) != k*k*T {
		panic(fmt.Sprintf("tile: cross product out length %d != %d", len(out), k*k*T))
	}
	pp := GetPairs(xh)
	defer pp.Release()
	dates := make([][]int, d.P)
	for p := range dates {
		for si := 0; si < sc.N; si++ {
			if sc.Mask[si]>>uint(p)&1 == 0 {
				continue
			}
			for t := int(sc.Lo[si]); t < min(int(sc.Hi[si]), n); t++ {
				dates[p] = append(dates[p], t)
			}
		}
	}
	pp.Normals(dates, T, out)
}

// matvecDateBlock is the date-sweep blocking factor of MatVecHistory:
// each lane block re-reads its Y columns once per design row, so the
// sweep is chunked to keep the Y block L1-resident across the K passes
// (192 dates × 8 lanes × 8 B = 12 KiB).
const matvecDateBlock = 192

// MatVecHistory computes X_h·y_h of every lane over the first xh.Cols
// dates, lane-interleaved: out[j*T+p] is lane p's component j. Unlike the
// cross product the right operand differs per lane, but the time-major
// layout makes a date's lane block one contiguous load.
//
// Each design row sweeps the schedule with its lane block's accumulators
// in registers; the date range is cache-blocked (matvecDateBlock) so the
// Y block a row re-reads stays L1-resident across the K row passes. The
// accumulators are seeded from out and stored back at block boundaries,
// which keeps every lane's additions in strict date order across blocks.
//
//bfast:kernel
func MatVecHistory(xh *linalg.Matrix, d *Data, sc *Schedule, out []float64) {
	k := xh.Rows
	n := xh.Cols
	T := d.T
	if n > d.N {
		panic(fmt.Sprintf("tile: matvec over %d dates on a %d-date tile", n, d.N))
	}
	if len(out) != k*T {
		panic(fmt.Sprintf("tile: matvec out length %d != %d", len(out), k*T))
	}
	for base := 0; base < d.P; base += 8 {
		for j := 0; j < k; j++ {
			o := out[j*T+base : j*T+base+8]
			for l := range o {
				o[l] = 0
			}
		}
		for lo0 := 0; lo0 < n; lo0 += matvecDateBlock {
			hi0 := lo0 + matvecDateBlock
			if hi0 > n {
				hi0 = n
			}
			for j := 0; j < k; j++ {
				matvecAcc8(xh.Data[j*n:(j+1)*n], d.Y, T, sc, lo0, hi0, uint(base),
					out[j*T+base:j*T+base+8])
			}
		}
	}
}

// Residuals computes every lane's compacted residuals r̄ = y − Xᵀβ over
// all d.N dates. beta is lane-interleaved (beta[j*T+p]); the outputs are
// lane-major rows of length d.N: lane p's residuals land in
// r[p*d.N : p*d.N+nVal[p]] with their original date indices in ix, and
// nVal[p] receives the count. r and ix need d.Lanes() rows and nVal as
// many entries: the padding lanes are written too. sc must be built from
// d. Lanes whose β is unusable (unfitted pixels, padding) still run but
// their outputs are ignored by the caller.
//
// Each lane block sweeps the schedule once, predictions held in eight
// registers per date, and emits all eight lanes at every date; a lane's
// count advances only where it is valid, so its masked dates are
// overwritten by the next valid one. Predictions of invalid lanes are
// computed (reads only X and β) and discarded.
//
//bfast:kernel
func Residuals(x *series.DesignMatrix, d *Data, sc *Schedule, beta []float64, r []float64, ix []int32, nVal []int) {
	N := d.N
	if x.N != N {
		panic(fmt.Sprintf("tile: residuals design has %d dates, tile %d", x.N, N))
	}
	lanes := d.Lanes()
	if len(r) < lanes*N || len(ix) < lanes*N || len(nVal) < lanes {
		panic("tile: residual buffers too small")
	}
	for base := 0; base < d.P; base += 8 {
		residBlock8(x, d, sc, beta, r, ix, nVal, base)
	}
}

// residBlock8 runs the residual pass for the full lane block
// [base, base+8): per date a j-ascending loop builds eight predictions in
// registers (the same per-lane multiply-add sequence as the scalar path),
// then every lane stores its residual and advances by its mask bit.
//
//bfast:kernel
func residBlock8(x *series.DesignMatrix, d *Data, sc *Schedule, beta []float64, r []float64, ix []int32, nVal []int, base int) {
	k := x.K
	N := d.N
	T := d.T
	y := d.Y
	xd := x.Data
	b := base
	r0 := r[(b+0)*N : (b+1)*N]
	r1 := r[(b+1)*N : (b+2)*N]
	r2 := r[(b+2)*N : (b+3)*N]
	r3 := r[(b+3)*N : (b+4)*N]
	r4 := r[(b+4)*N : (b+5)*N]
	r5 := r[(b+5)*N : (b+6)*N]
	r6 := r[(b+6)*N : (b+7)*N]
	r7 := r[(b+7)*N : (b+8)*N]
	ix0 := ix[(b+0)*N : (b+1)*N]
	ix1 := ix[(b+1)*N : (b+2)*N]
	ix2 := ix[(b+2)*N : (b+3)*N]
	ix3 := ix[(b+3)*N : (b+4)*N]
	ix4 := ix[(b+4)*N : (b+5)*N]
	ix5 := ix[(b+5)*N : (b+6)*N]
	ix6 := ix[(b+6)*N : (b+7)*N]
	ix7 := ix[(b+7)*N : (b+8)*N]
	var w0, w1, w2, w3, w4, w5, w6, w7 int
	for si := 0; si < sc.N; si++ {
		m := int(sc.Mask[si]>>uint(b)) & 0xff
		if m == 0 {
			continue
		}
		lo := int(sc.Lo[si])
		hi := int(sc.Hi[si])
		for t := lo; t < hi; t++ {
			var p0, p1, p2, p3, p4, p5, p6, p7 float64
			for j := 0; j < k; j++ {
				xv := xd[j*N+t]
				bj := beta[j*T+b : j*T+b+8]
				p0 += xv * bj[0]
				p1 += xv * bj[1]
				p2 += xv * bj[2]
				p3 += xv * bj[3]
				p4 += xv * bj[4]
				p5 += xv * bj[5]
				p6 += xv * bj[6]
				p7 += xv * bj[7]
			}
			yt := y[t*T+b : t*T+b+8]
			tt := int32(t)
			r0[w0] = yt[0] - p0
			ix0[w0] = tt
			w0 += m & 1
			r1[w1] = yt[1] - p1
			ix1[w1] = tt
			w1 += m >> 1 & 1
			r2[w2] = yt[2] - p2
			ix2[w2] = tt
			w2 += m >> 2 & 1
			r3[w3] = yt[3] - p3
			ix3[w3] = tt
			w3 += m >> 3 & 1
			r4[w4] = yt[4] - p4
			ix4[w4] = tt
			w4 += m >> 4 & 1
			r5[w5] = yt[5] - p5
			ix5[w5] = tt
			w5 += m >> 5 & 1
			r6[w6] = yt[6] - p6
			ix6[w6] = tt
			w6 += m >> 6 & 1
			r7[w7] = yt[7] - p7
			ix7[w7] = tt
			w7 += m >> 7 & 1
		}
	}
	nVal[b+0] = w0
	nVal[b+1] = w1
	nVal[b+2] = w2
	nVal[b+3] = w3
	nVal[b+4] = w4
	nVal[b+5] = w5
	nVal[b+6] = w6
	nVal[b+7] = w7
}
