package tile

// 8-lane kernel helpers: every accumulator receives its products in
// strict date order, the per-lane floating-point sequence of core.Detect.

// matvecAcc8 accumulates lane block [base, base+8)'s Σ_t row[t]·y[t]
// over the schedule's segments clipped to the date window [lo0, hi0).
// The accumulators are seeded from acc[0:8] and stored back, so a
// date-blocked caller keeps every lane's additions in strict date order
// across windows. Every segment the block is valid on runs the same
// dense loop: Gather zero-filled the masked slots (see kernels.go).
//
//bfast:kernel
func matvecAcc8(row, y []float64, T int, sc *Schedule, lo0, hi0 int, base uint, acc []float64) {
	acc = acc[:8]
	a0 := acc[0]
	a1 := acc[1]
	a2 := acc[2]
	a3 := acc[3]
	a4 := acc[4]
	a5 := acc[5]
	a6 := acc[6]
	a7 := acc[7]
	b := int(base)
	for si := 0; si < sc.N; si++ {
		lo := int(sc.Lo[si])
		if lo >= hi0 {
			break
		}
		hi := int(sc.Hi[si])
		if hi <= lo0 || (sc.Mask[si]>>base)&0xff == 0 {
			continue
		}
		lo = max(lo, lo0)
		hi = min(hi, hi0)
		t := lo
		for ; t+2 <= hi; t += 2 {
			xa := row[t]
			xb := row[t+1]
			ya := y[t*T+b : t*T+b+8]
			yb := y[(t+1)*T+b : (t+1)*T+b+8]
			a0 += xa * ya[0]
			a1 += xa * ya[1]
			a2 += xa * ya[2]
			a3 += xa * ya[3]
			a4 += xa * ya[4]
			a5 += xa * ya[5]
			a6 += xa * ya[6]
			a7 += xa * ya[7]
			a0 += xb * yb[0]
			a1 += xb * yb[1]
			a2 += xb * yb[2]
			a3 += xb * yb[3]
			a4 += xb * yb[4]
			a5 += xb * yb[5]
			a6 += xb * yb[6]
			a7 += xb * yb[7]
		}
		for ; t < hi; t++ {
			xv := row[t]
			yt := y[t*T+b : t*T+b+8]
			a0 += xv * yt[0]
			a1 += xv * yt[1]
			a2 += xv * yt[2]
			a3 += xv * yt[3]
			a4 += xv * yt[4]
			a5 += xv * yt[5]
			a6 += xv * yt[6]
			a7 += xv * yt[7]
		}
	}
	acc[0] = a0
	acc[1] = a1
	acc[2] = a2
	acc[3] = a3
	acc[4] = a4
	acc[5] = a5
	acc[6] = a6
	acc[7] = a7
}
