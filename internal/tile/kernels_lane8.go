package tile

// 8-lane kernel helpers: every accumulator receives its products in
// strict date order, the per-lane floating-point sequence of core.Detect.

// crossAcc8 accumulates lane block [base, base+8)'s Σ_t r1[t]·r2[t] over
// the schedule's segments clipped to [0, clip), overwriting acc[0:8].
// The eight accumulators live in named locals so gc keeps them in
// registers for the whole sweep; the dense path unrolls dates by pairs
// (each accumulator still receives its products in date order).
//
//bfast:kernel
func crossAcc8(r1, r2 []float64, sc *Schedule, clip int, base uint, acc []float64) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	bf := (sc.Full >> base) & 0xff
	for si := 0; si < sc.N; si++ {
		lo := int(sc.Lo[si])
		if lo >= clip {
			break
		}
		m := (sc.Mask[si] >> base) & 0xff
		if m == 0 {
			continue
		}
		hi := int(sc.Hi[si])
		if hi > clip {
			hi = clip
		}
		s1 := r1[lo:hi]
		s2 := r2[lo:hi]
		s2 = s2[:len(s1)]
		if m == bf {
			i := 0
			for ; i+2 <= len(s1); i += 2 {
				pa := s1[i] * s2[i]
				pb := s1[i+1] * s2[i+1]
				a0 += pa
				a1 += pa
				a2 += pa
				a3 += pa
				a4 += pa
				a5 += pa
				a6 += pa
				a7 += pa
				a0 += pb
				a1 += pb
				a2 += pb
				a3 += pb
				a4 += pb
				a5 += pb
				a6 += pb
				a7 += pb
			}
			for ; i < len(s1); i++ {
				p := s1[i] * s2[i]
				a0 += p
				a1 += p
				a2 += p
				a3 += p
				a4 += p
				a5 += p
				a6 += p
				a7 += p
			}
			continue
		}
		for i, v := range s1 {
			p := v * s2[i]
			if m&(1<<0) != 0 {
				a0 += p
			}
			if m&(1<<1) != 0 {
				a1 += p
			}
			if m&(1<<2) != 0 {
				a2 += p
			}
			if m&(1<<3) != 0 {
				a3 += p
			}
			if m&(1<<4) != 0 {
				a4 += p
			}
			if m&(1<<5) != 0 {
				a5 += p
			}
			if m&(1<<6) != 0 {
				a6 += p
			}
			if m&(1<<7) != 0 {
				a7 += p
			}
		}
	}
	acc = acc[:8]
	acc[0] = a0
	acc[1] = a1
	acc[2] = a2
	acc[3] = a3
	acc[4] = a4
	acc[5] = a5
	acc[6] = a6
	acc[7] = a7
}

// crossAccPair8 is crossAcc8 for two paired (j1, j2) entries sharing the
// r1 row: one schedule walk and one load of r1[t] feed sixteen
// accumulators (the K×K pair unroll).
//
//bfast:kernel
func crossAccPair8(r1, ra, rb []float64, sc *Schedule, clip int, base uint, accA, accB []float64) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	var b0, b1, b2, b3, b4, b5, b6, b7 float64
	bf := (sc.Full >> base) & 0xff
	for si := 0; si < sc.N; si++ {
		lo := int(sc.Lo[si])
		if lo >= clip {
			break
		}
		m := (sc.Mask[si] >> base) & 0xff
		if m == 0 {
			continue
		}
		hi := int(sc.Hi[si])
		if hi > clip {
			hi = clip
		}
		s1 := r1[lo:hi]
		sa := ra[lo:hi]
		sb := rb[lo:hi]
		sa = sa[:len(s1)]
		sb = sb[:len(s1)]
		if m == bf {
			for i, v := range s1 {
				pa := v * sa[i]
				pb := v * sb[i]
				a0 += pa
				a1 += pa
				a2 += pa
				a3 += pa
				a4 += pa
				a5 += pa
				a6 += pa
				a7 += pa
				b0 += pb
				b1 += pb
				b2 += pb
				b3 += pb
				b4 += pb
				b5 += pb
				b6 += pb
				b7 += pb
			}
			continue
		}
		for i, v := range s1 {
			pa := v * sa[i]
			pb := v * sb[i]
			if m&(1<<0) != 0 {
				a0 += pa
				b0 += pb
			}
			if m&(1<<1) != 0 {
				a1 += pa
				b1 += pb
			}
			if m&(1<<2) != 0 {
				a2 += pa
				b2 += pb
			}
			if m&(1<<3) != 0 {
				a3 += pa
				b3 += pb
			}
			if m&(1<<4) != 0 {
				a4 += pa
				b4 += pb
			}
			if m&(1<<5) != 0 {
				a5 += pa
				b5 += pb
			}
			if m&(1<<6) != 0 {
				a6 += pa
				b6 += pb
			}
			if m&(1<<7) != 0 {
				a7 += pa
				b7 += pb
			}
		}
	}
	accA = accA[:8]
	accA[0] = a0
	accA[1] = a1
	accA[2] = a2
	accA[3] = a3
	accA[4] = a4
	accA[5] = a5
	accA[6] = a6
	accA[7] = a7
	accB = accB[:8]
	accB[0] = b0
	accB[1] = b1
	accB[2] = b2
	accB[3] = b3
	accB[4] = b4
	accB[5] = b5
	accB[6] = b6
	accB[7] = b7
}

// matvecAcc8 accumulates lane block [base, base+8)'s Σ_t row[t]·y[t]
// over the schedule's segments clipped to the date window [lo0, hi0).
// The accumulators are seeded from acc[0:8] and stored back, so a
// date-blocked caller keeps every lane's additions in strict date order
// across windows.
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
	bf := (sc.Full >> base) & 0xff
	for si := 0; si < sc.N; si++ {
		lo := int(sc.Lo[si])
		if lo >= hi0 {
			break
		}
		hi := int(sc.Hi[si])
		if hi <= lo0 {
			continue
		}
		m := (sc.Mask[si] >> base) & 0xff
		if m == 0 {
			continue
		}
		if lo < lo0 {
			lo = lo0
		}
		if hi > hi0 {
			hi = hi0
		}
		if m == bf {
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
			continue
		}
		for t := lo; t < hi; t++ {
			xv := row[t]
			yt := y[t*T+b : t*T+b+8]
			if m&(1<<0) != 0 {
				a0 += xv * yt[0]
			}
			if m&(1<<1) != 0 {
				a1 += xv * yt[1]
			}
			if m&(1<<2) != 0 {
				a2 += xv * yt[2]
			}
			if m&(1<<3) != 0 {
				a3 += xv * yt[3]
			}
			if m&(1<<4) != 0 {
				a4 += xv * yt[4]
			}
			if m&(1<<5) != 0 {
				a5 += xv * yt[5]
			}
			if m&(1<<6) != 0 {
				a6 += xv * yt[6]
			}
			if m&(1<<7) != 0 {
				a7 += xv * yt[7]
			}
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
