package tile

import (
	"fmt"
	"math/bits"

	"bfast/internal/series"
)

// This file holds the lane kernels. Each pixel (a lane, one of a tile's
// slots) is first compacted: its valid dates are read off its mask row
// and its values off its batch row (Compact). Every later pass walks
// only that compacted list — the normal matrix (Pairs.Normals), the
// right-hand side (LaneMatVec) and the residuals (LaneResiduals) — so a
// lane does no work on its own missing dates and none on its
// tile-mates'. Every lane accumulates over its valid dates in increasing
// date order, and over the regressors in increasing j — the same order
// as scalar core.Detect — so every lane's floating-point sequence, and
// hence its result, is bit-identical to that oracle.
//
// The kernels are shaped for what gc will actually emit, not for an
// auto-vectorizer it doesn't have:
//
//   - No branches on the data. The design table's padding regressors
//     are +0 and so is the padded β, so a kernel runs whole blocks of
//     eight regressors for any K: a padding product x·β is +0, and a
//     running sum starts at +0 and can never become −0, so adding it
//     leaves the sum's bits unchanged.
//   - A block's eight accumulators live in eight named float64 locals —
//     gc register-allocates scalars but never arrays — so a date walk is
//     load/FLOP-only with no accumulator store traffic.
//   - A date's regressors are one 64-byte line of the design table, so a
//     lane's walk touches one line per valid date and the table stays
//     L1-resident across the lanes of a tile.

// CompactDates writes the dates of the set bits among the first n bits of
// words, ascending, to dates and returns their count. dates must have
// room for all of them.
//
//bfast:kernel
func CompactDates(words []uint64, n int, dates []int32) int {
	c := 0
	for wi := 0; wi*64 < n; wi++ {
		w, base := words[wi], wi*64
		if rem := n - base; rem < 64 {
			w &= 1<<uint(rem) - 1
		}
		if w == series.AllValidWord {
			run := dates[c : c+64]
			for i := range run {
				run[i] = int32(base + i)
			}
			c += 64
			continue
		}
		for ; w != 0; w &= w - 1 {
			dates[c] = int32(base + bits.TrailingZeros64(w))
			c++
		}
	}
	return c
}

// Compact compacts one lane: the dates of its valid observations among
// the first n, read off its mask row words, go to dates, ascending, and
// the observations themselves to r, r[i] = row[dates[i]] — or
// row[src[dates[i]]] when src, a date list, maps the mask's dates to
// columns of row. It returns the count; r and dates must have room for
// all of them.
//
//bfast:kernel
func Compact(row []float64, src []int, words []uint64, n int, r []float64, dates []int32) int {
	c := CompactDates(words, n, dates)
	if src != nil {
		for i, t := range dates[:c] {
			r[i] = row[src[t]]
		}
		return c
	}
	for i, t := range dates[:c] {
		r[i] = row[t]
	}
	return c
}

// LaneMatVec writes the history right-hand side X_h·y_h of lane p into
// out, lane-interleaved: out[j*T+p] is its component j. dates are the
// lane's valid history dates, ascending, and y its observations on them.
// Each component receives the products x_j(t)·y in date order, as
// linalg.MaskedMatVec adds them.
//
//bfast:kernel
func (pp *Pairs) LaneMatVec(dates []int32, y []float64, p, T int, out []float64) {
	k, nd := pp.k, pp.nd
	if p >= T || len(out) < k*T || len(y) < len(dates) {
		panic(fmt.Sprintf("tile: right-hand side of lane %d of %d, K=%d, into %d slots", p, T, k, len(out)))
	}
	y = y[:len(dates)]
	var acc [8]float64
	for b := 0; b < pp.xBlocks; b++ {
		blk := pp.xt[b*nd*8 : (b+1)*nd*8]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for i, t := range dates {
			x := (*[8]float64)(blk[int(t)*8 : int(t)*8+8])
			v := y[i]
			a0 += x[0] * v
			a1 += x[1] * v
			a2 += x[2] * v
			a3 += x[3] * v
			a4 += x[4] * v
			a5 += x[5] * v
			a6 += x[6] * v
			a7 += x[7] * v
		}
		acc[0] = a0
		acc[1] = a1
		acc[2] = a2
		acc[3] = a3
		acc[4] = a4
		acc[5] = a5
		acc[6] = a6
		acc[7] = a7
		for i := 0; i < 8 && b*8+i < k; i++ {
			out[(b*8+i)*T+p] = acc[i]
		}
	}
}

// LaneResiduals turns a lane's compacted observations into its residuals
// in place: r[i] -= Σ_j x_j(dates[i])·β_j, the prediction summed over j
// ascending before it is subtracted, as core.Detect does. beta is the
// lane's coefficients padded with +0 to PadK(K) entries.
//
//bfast:kernel
func (pp *Pairs) LaneResiduals(dates []int32, r, beta []float64) {
	nd, blocks := pp.nd, pp.xBlocks
	if len(beta) < blocks*8 || len(r) < len(dates) {
		panic(fmt.Sprintf("tile: residuals of %d dates from %d values and %d coefficients, K=%d", len(dates), len(r), len(beta), pp.k))
	}
	r = r[:len(dates)]
	xt := pp.xt
	for i, t := range dates {
		var pred float64
		for b := 0; b < blocks; b++ {
			x := (*[8]float64)(xt[(b*nd+int(t))*8 : (b*nd+int(t))*8+8])
			c := (*[8]float64)(beta[b*8 : b*8+8])
			pred += x[0] * c[0]
			pred += x[1] * c[1]
			pred += x[2] * c[2]
			pred += x[3] * c[3]
			pred += x[4] * c[4]
			pred += x[5] * c[5]
			pred += x[6] * c[6]
			pred += x[7] * c[7]
		}
		r[i] -= pred
	}
}
