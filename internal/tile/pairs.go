package tile

import (
	"fmt"
	"sync"

	"bfast/internal/linalg"
)

// Pairs is the pair-product table of a design's history rows: for every
// history date t, the K(K+1)/2 products x_j1[t]·x_j2[t] (j1 ≤ j2, row
// by row) of the normal matrix's upper triangle. A lane's normal matrix
// is then the sum of the table rows of its valid dates, so the masked
// cross product of a pixel whose mask is shared with no other costs no
// lane branches and no work on the dates it is missing.
//
// The entries are stored in blocks of eight, each block date-major
// (xx[b*n*8 + t*8 + i] is entry 8b+i at date t): a block is 64 bytes a
// date, one cache line, and n·64 bytes in all, so it stays L1-resident
// while every lane of a tile sums it.
//
// The table depends on the design only, so one table serves every lane
// of a batch; it is filled once per call and pooled by length across
// calls (a 1–4-pixel serving request would otherwise allocate it anew).
type Pairs struct {
	k, n int
	// blocks is the number of 8-entry blocks, K(K+1)/2 rounded up; the
	// padding entries are zero.
	blocks int
	xx     []float64
	// at holds, per entry, its two offsets j1*K+j2 and j2*K+j1 in a K×K
	// matrix: where the kernel stores it, mirrored.
	at []int
}

// pairsPools maps a table length to the sync.Pool of tables that long.
var pairsPools sync.Map

// GetPairs returns a table filled from xh (K×n), taken from the pool of
// its length when one is there. Release hands it back.
func GetPairs(xh *linalg.Matrix) *Pairs {
	k, n := xh.Rows, xh.Cols
	blocks := (k*(k+1)/2 + 7) / 8
	var pp *Pairs
	if p, ok := pairsPools.Load(blocks * n * 8); ok {
		pp, _ = p.(*sync.Pool).Get().(*Pairs)
	}
	if pp == nil {
		pp = &Pairs{xx: make([]float64, blocks*n*8)}
	}
	pp.k, pp.n, pp.blocks = k, n, blocks
	pp.at = pp.at[:0]
	for j1 := 0; j1 < k; j1++ {
		for j2 := j1; j2 < k; j2++ {
			pp.at = append(pp.at, j1*k+j2, j2*k+j1)
		}
	}
	pp.fill(xh)
	return pp
}

// Release returns the table to the pool of its length.
func (pp *Pairs) Release() {
	p, ok := pairsPools.Load(len(pp.xx))
	if !ok {
		p, _ = pairsPools.LoadOrStore(len(pp.xx), new(sync.Pool))
	}
	p.(*sync.Pool).Put(pp)
}

// fill computes the table from xh, zeroing the padding entries.
//
//bfast:kernel
func (pp *Pairs) fill(xh *linalg.Matrix) {
	k, n := pp.k, pp.n
	for t := 0; t < n; t++ {
		e := 0
		for j1 := 0; j1 < k; j1++ {
			x1 := xh.Data[j1*n+t]
			for j2 := j1; j2 < k; j2++ {
				pp.xx[(e/8*n+t)*8+e%8] = x1 * xh.Data[j2*n+t]
				e++
			}
		}
		for ; e < pp.blocks*8; e++ {
			pp.xx[(e/8*n+t)*8+e%8] = 0
		}
	}
}

// Normals writes the normal matrix X_h·X_hᵀ of lanes 0..len(dates)-1 into
// out, lane-interleaved and mirrored: out[(j1*K+j2)*T + p] and
// out[(j2*K+j1)*T + p] are lane p's element (j1, j2), summed over
// dates[p] (ascending history dates, the lane's valid ones). Only those
// lanes' K×K slots are written.
//
// Every entry receives the same rounded products, added in the same date
// order, as linalg.MaskedCrossProduct — the scalar path's arithmetic, so
// the result is bit-identical to it (gc contracts no multiply-add into an
// FMA on amd64). Block by block, each lane sums eight entries at a time,
// their accumulators in registers across its date walk.
//
//bfast:kernel
func (pp *Pairs) Normals(dates [][]int, T int, out []float64) {
	k, n := pp.k, pp.n
	if len(dates) > T || len(out) < k*k*T {
		panic(fmt.Sprintf("tile: normal matrices of %d lanes into %d slots for K=%d, T=%d", len(dates), len(out), k, T))
	}
	var acc [8]float64
	for b := 0; b < pp.blocks; b++ {
		blk := pp.xx[b*n*8 : (b+1)*n*8]
		at := pp.at[b*16 : min((b+1)*16, len(pp.at))]
		for p, ds := range dates {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for _, t := range ds {
				r := (*[8]float64)(blk[t*8 : t*8+8])
				a0 += r[0]
				a1 += r[1]
				a2 += r[2]
				a3 += r[3]
				a4 += r[4]
				a5 += r[5]
				a6 += r[6]
				a7 += r[7]
			}
			acc[0] = a0
			acc[1] = a1
			acc[2] = a2
			acc[3] = a3
			acc[4] = a4
			acc[5] = a5
			acc[6] = a6
			acc[7] = a7
			for i := 0; i < len(at); i += 2 {
				v := acc[i/2]
				out[at[i]*T+p] = v
				out[at[i+1]*T+p] = v
			}
		}
	}
}
