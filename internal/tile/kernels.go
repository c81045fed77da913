package tile

import (
	"fmt"
	"math/bits"

	"bfast/internal/linalg"
	"bfast/internal/series"
)

// This file holds the register-blocked tile kernels: the masked cross
// product, history matrix-vector product and residual pass, each loading
// the shared design matrix once per tile and updating per-pixel
// accumulators (the CPU analogue of Fig. 4's register tiling). All three
// accumulate per pixel over valid dates in increasing date order — the
// same order as scalar core.Detect — so every lane's floating-point
// sequence, and hence its result, is bit-identical to that oracle.
//
// The kernels are shaped for what gc will actually emit, not for an
// auto-vectorizer it doesn't have:
//
//   - Mask classification is hoisted fully out of the lane loops: the
//     per-date column masks are run-length encoded once per tile into a
//     Schedule of equal-mask date segments, so a kernel sweep branches
//     once per segment, not once per date per matrix entry.
//   - The lane dimension is walked in blocks of eight. A block's
//     accumulators live in eight named float64 locals — gc register-
//     allocates scalars but never arrays — so the dense date loop is
//     load/FLOP-only with no accumulator store traffic, and the live
//     working set per sweep is bounded (lane-blocking is the cache
//     blocking: a block's accumulators and the design rows it streams
//     stay L1-resident across the whole date sweep).
//   - Dense and partial segments take separate straight-line paths over
//     fixed-stride subslices rebound as s2 = s2[:len(s1)], the idiom gc's
//     prove pass needs to drop bounds checks from the inner loops.
//   - The hot 8-lane helpers live in kernels_lane8.go and unroll dates
//     by pairs.
//
// Ragged lane counts (tiles narrower than eight, or a tail block) fall
// back to generic segment-driven paths that keep the same per-lane
// floating-point order.

// CrossProduct computes the K×K normal matrix X_h·X_hᵀ of every lane over
// the first xh.Cols dates, writing lane-interleaved output:
// out[(j1*K+j2)*T + p] is lane p's element (j1, j2). xh is K×n with
// n <= d.N; sc must be built from d; out must have K*K*d.T entries.
//
// The product r1[t]*r2[t] is shared by all lanes (X is pixel-independent),
// so each date costs one multiplication per matrix element for the whole
// tile. Each (j1, j2) entry sweeps the schedule once with its lane block's
// accumulators in registers.
//
//bfast:kernel
func CrossProduct(xh *linalg.Matrix, d *Data, sc *Schedule, out []float64) {
	k := xh.Rows
	n := xh.Cols
	T := d.T
	if n > d.N {
		panic(fmt.Sprintf("tile: cross product over %d dates on a %d-date tile", n, d.N))
	}
	if len(out) != k*k*T {
		panic(fmt.Sprintf("tile: cross product out length %d != %d", len(out), k*k*T))
	}
	if k > MaxK {
		panic(fmt.Sprintf("tile: cross product with %d design rows exceeds MaxK=%d", k, MaxK))
	}
	P := d.P
	base := 0
	for ; base+8 <= P; base += 8 {
		for j1 := 0; j1 < k; j1++ {
			r1 := xh.Data[j1*n : (j1+1)*n]
			j2 := j1
			// Pair the K×K accumulator updates: two j2 entries share the
			// schedule walk and the r1 loads.
			for ; j2+1 < k; j2 += 2 {
				ra := xh.Data[j2*n : (j2+1)*n]
				rb := xh.Data[(j2+1)*n : (j2+2)*n]
				crossAccPair8(r1, ra, rb, sc, n, uint(base),
					out[(j1*k+j2)*T+base:(j1*k+j2)*T+base+8],
					out[(j1*k+j2+1)*T+base:(j1*k+j2+1)*T+base+8])
			}
			for ; j2 < k; j2++ {
				r2 := xh.Data[j2*n : (j2+1)*n]
				crossAcc8(r1, r2, sc, n, uint(base),
					out[(j1*k+j2)*T+base:(j1*k+j2)*T+base+8])
			}
		}
	}
	if base < P {
		crossTail(xh, sc, n, T, base, P-base, out)
	}
	for j1 := 0; j1 < k; j1++ {
		for j2 := j1 + 1; j2 < k; j2++ {
			copy(out[(j2*k+j1)*T:(j2*k+j1)*T+T], out[(j1*k+j2)*T:(j1*k+j2)*T+T])
		}
	}
}

// crossTail is the generic lane path for ragged blocks: lanes
// [base, base+s) with s < 8, memory accumulators on the stack.
//
//bfast:kernel
func crossTail(xh *linalg.Matrix, sc *Schedule, n, T, base, s int, out []float64) {
	k := xh.Rows
	bf := sc.Full >> uint(base)
	for j1 := 0; j1 < k; j1++ {
		rr1 := xh.Data[j1*n : (j1+1)*n]
		for j2 := j1; j2 < k; j2++ {
			rr2 := xh.Data[j2*n : (j2+1)*n]
			var a [8]float64
			for l := 0; l < s; l++ {
				a[l] = 0
			}
			for si := 0; si < sc.N; si++ {
				lo := int(sc.Lo[si])
				if lo >= n {
					break
				}
				hi := int(sc.Hi[si])
				if hi > n {
					hi = n
				}
				m := sc.Mask[si] >> uint(base)
				if m == 0 {
					continue
				}
				s1 := rr1[lo:hi]
				s2 := rr2[lo:hi]
				s2 = s2[:len(s1)]
				if m == bf {
					for i, v := range s1 {
						prod := v * s2[i]
						for l := 0; l < s; l++ {
							a[l] += prod
						}
					}
					continue
				}
				for i, v := range s1 {
					prod := v * s2[i]
					for mm := m; mm != 0; mm &= mm - 1 {
						a[bits.TrailingZeros64(mm)] += prod
					}
				}
			}
			o := out[(j1*k+j2)*T+base : (j1*k+j2)*T+base+s]
			for l := range o {
				o[l] = a[l]
			}
		}
	}
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
	P := d.P
	base := 0
	for ; base+8 <= P; base += 8 {
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
	if base < P {
		matvecTail(xh, d, sc, n, base, P-base, out)
	}
}

// matvecTail is the generic lane path for ragged blocks: date-outer over
// the schedule, memory accumulators on the stack.
//
//bfast:kernel
func matvecTail(xh *linalg.Matrix, d *Data, sc *Schedule, n, base, s int, out []float64) {
	k := xh.Rows
	T := d.T
	bf := sc.Full >> uint(base)
	for j := 0; j < k; j++ {
		row := xh.Data[j*n : (j+1)*n]
		var a [8]float64
		for l := 0; l < s; l++ {
			a[l] = 0
		}
		for si := 0; si < sc.N; si++ {
			lo := int(sc.Lo[si])
			if lo >= n {
				break
			}
			hi := int(sc.Hi[si])
			if hi > n {
				hi = n
			}
			m := sc.Mask[si] >> uint(base)
			if m == 0 {
				continue
			}
			if m == bf {
				for t := lo; t < hi; t++ {
					xv := row[t]
					yt := d.Y[t*T+base : t*T+base+s]
					for l, yv := range yt {
						a[l] += xv * yv
					}
				}
				continue
			}
			for t := lo; t < hi; t++ {
				xv := row[t]
				yt := d.Y[t*T+base : t*T+base+s]
				for mm := m; mm != 0; mm &= mm - 1 {
					l := bits.TrailingZeros64(mm)
					a[l] += xv * yt[l]
				}
			}
		}
		o := out[j*T+base : j*T+base+s]
		for l := range o {
			o[l] = a[l]
		}
	}
}

// Residuals computes every lane's compacted residuals r̄ = y − Xᵀβ over
// all d.N dates. beta is lane-interleaved (beta[j*T+p]); the outputs are
// lane-major rows of length d.N: lane p's residuals land in
// r[p*d.N : p*d.N+nVal[p]] with their original date indices in ix, and
// nVal[p] receives the count. sc must be built from d. Lanes whose β is
// unusable (unfitted pixels) still run but their outputs are ignored by
// the caller.
//
// Each lane block sweeps the schedule once, predictions held in eight
// registers per date; a dense segment emits all eight lanes branch-free,
// a partial segment emits only its valid lanes. Predictions of invalid
// lanes are computed (reads only X and β) and discarded.
//
//bfast:kernel
func Residuals(x *series.DesignMatrix, d *Data, sc *Schedule, beta []float64, r []float64, ix []int32, nVal []int) {
	N := d.N
	if x.N != N {
		panic(fmt.Sprintf("tile: residuals design has %d dates, tile %d", x.N, N))
	}
	if len(r) < d.P*N || len(ix) < d.P*N || len(nVal) < d.P {
		panic("tile: residual buffers too small")
	}
	P := d.P
	base := 0
	for ; base+8 <= P; base += 8 {
		residBlock8(x, d, sc, beta, r, ix, nVal, base)
	}
	for ; base < P; base++ {
		residLane(x, d, sc, beta, r, ix, nVal, base)
	}
}

// residBlock8 runs the residual pass for the full lane block
// [base, base+8): per date a j-ascending loop builds eight predictions in
// registers (the same per-lane multiply-add sequence as the scalar path),
// then the block either emits all lanes (dense segment) or its valid
// subset.
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
	bf := (sc.Full >> uint(b)) & 0xff
	for si := 0; si < sc.N; si++ {
		m := (sc.Mask[si] >> uint(b)) & 0xff
		if m == 0 {
			continue
		}
		lo := int(sc.Lo[si])
		hi := int(sc.Hi[si])
		dense := m == bf
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
			if dense {
				r0[w0] = yt[0] - p0
				ix0[w0] = tt
				w0++
				r1[w1] = yt[1] - p1
				ix1[w1] = tt
				w1++
				r2[w2] = yt[2] - p2
				ix2[w2] = tt
				w2++
				r3[w3] = yt[3] - p3
				ix3[w3] = tt
				w3++
				r4[w4] = yt[4] - p4
				ix4[w4] = tt
				w4++
				r5[w5] = yt[5] - p5
				ix5[w5] = tt
				w5++
				r6[w6] = yt[6] - p6
				ix6[w6] = tt
				w6++
				r7[w7] = yt[7] - p7
				ix7[w7] = tt
				w7++
				continue
			}
			if m&(1<<0) != 0 {
				r0[w0] = yt[0] - p0
				ix0[w0] = tt
				w0++
			}
			if m&(1<<1) != 0 {
				r1[w1] = yt[1] - p1
				ix1[w1] = tt
				w1++
			}
			if m&(1<<2) != 0 {
				r2[w2] = yt[2] - p2
				ix2[w2] = tt
				w2++
			}
			if m&(1<<3) != 0 {
				r3[w3] = yt[3] - p3
				ix3[w3] = tt
				w3++
			}
			if m&(1<<4) != 0 {
				r4[w4] = yt[4] - p4
				ix4[w4] = tt
				w4++
			}
			if m&(1<<5) != 0 {
				r5[w5] = yt[5] - p5
				ix5[w5] = tt
				w5++
			}
			if m&(1<<6) != 0 {
				r6[w6] = yt[6] - p6
				ix6[w6] = tt
				w6++
			}
			if m&(1<<7) != 0 {
				r7[w7] = yt[7] - p7
				ix7[w7] = tt
				w7++
			}
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

// residLane is the generic single-lane residual path for ragged blocks:
// the scalar j-loop per valid date, identical in order to scalar
// Detect.
//
//bfast:kernel
func residLane(x *series.DesignMatrix, d *Data, sc *Schedule, beta []float64, r []float64, ix []int32, nVal []int, p int) {
	k := x.K
	N := d.N
	T := d.T
	xd := x.Data
	bit := uint64(1) << uint(p)
	rp := r[p*N : (p+1)*N]
	ixp := ix[p*N : (p+1)*N]
	w := 0
	for si := 0; si < sc.N; si++ {
		if sc.Mask[si]&bit == 0 {
			continue
		}
		for t := int(sc.Lo[si]); t < int(sc.Hi[si]); t++ {
			pr := 0.0
			for j := 0; j < k; j++ {
				pr += xd[j*N+t] * beta[j*T+p]
			}
			rp[w] = d.Y[t*T+p] - pr
			ixp[w] = int32(t)
			w++
		}
	}
	nVal[p] = w
}
