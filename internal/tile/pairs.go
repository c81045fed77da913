package tile

import (
	"fmt"
	"sync"

	"bfast/internal/series"
)

// Pairs holds the two tables the lane kernels read a batch's design
// through, both filled once per call from the K×N design:
//
//   - the pair-product table of the history rows: for every history date
//     t, the K(K+1)/2 products x_j1[t]·x_j2[t] (j1 ≤ j2, row by row) of
//     the normal matrix's upper triangle. A lane's normal matrix is then
//     the sum of the table rows of its valid dates, so the masked cross
//     product of a pixel whose mask is shared with no other costs no lane
//     branches and no work on the dates it is missing;
//   - the design table: for every date t of the whole series, the K
//     regressors x_j[t], read by the right-hand side (LaneMatVec) and the
//     residual pass (LaneResiduals).
//
// Both store their entries in blocks of eight, each block date-major
// (xx[b*n*8 + t*8 + i] is entry 8b+i at date t): a block is 64 bytes a
// date, one cache line, and stays L1-resident while every lane of a tile
// walks it. Padding entries are +0, so a kernel runs whole blocks for any
// K, and K ≤ 8 regressors are one block.
//
// The tables depend on the design only, so one serves every lane of a
// batch. The zero Pairs is empty; Fill fills it, reusing its buffers, so
// a caller that keeps one across calls (core keeps the last shape's) or
// draws one from the pool (GetPairs) allocates nothing once warm.
type Pairs struct {
	k int
	// n is the number of history dates of the pair table, nd the number
	// of dates of the design table.
	n, nd int
	// blocks is the number of 8-entry blocks of the pair table,
	// K(K+1)/2 rounded up; xBlocks that of the design table, K rounded up.
	blocks, xBlocks int
	xx, xt          []float64
	// at holds, per entry, its two offsets j1*K+j2 and j2*K+j1 in a K×K
	// matrix: where the kernel stores it, mirrored.
	at []int
}

// PadK returns K rounded up to whole blocks of eight: the length of the
// padded coefficient vector LaneResiduals reads.
func PadK(k int) int { return (k + 7) &^ 7 }

// TablesLen returns the float64s the tables of a K-regressor design
// over nd dates take when its first n dates are the history: the pair
// table's ⌈K(K+1)/16⌉·8·n and the design table's ⌈K/8⌉·8·nd, the
// lengths Fill gives them. A caller bounds by it what a design would cost
// before building one.
func TablesLen(k, n, nd int) int {
	blocks, xBlocks := tableBlocks(k)
	return blocks*8*n + xBlocks*8*nd
}

// tableBlocks returns the number of 8-entry blocks of the pair table,
// K(K+1)/2 rounded up, and of the design table, K rounded up.
func tableBlocks(k int) (blocks, xBlocks int) {
	return (k*(k+1)/2 + 7) / 8, PadK(k) / 8
}

// Fill computes the tables of x into pp: the pair products of its first
// n dates, the history, and the design over all x.N dates. It reuses
// pp's buffers when they are long enough.
func (pp *Pairs) Fill(x *series.DesignMatrix, n int) {
	k := x.K
	if n > x.N {
		panic(fmt.Sprintf("tile: %d history dates of a %d-date design", n, x.N))
	}
	pp.k, pp.n, pp.nd = k, n, x.N
	pp.blocks, pp.xBlocks = tableBlocks(k)
	nxx, nxt := pp.blocks*8*n, pp.xBlocks*8*x.N
	if cap(pp.xx) < nxx {
		pp.xx = make([]float64, nxx)
	}
	if cap(pp.xt) < nxt {
		pp.xt = make([]float64, nxt)
	}
	pp.xx, pp.xt = pp.xx[:nxx], pp.xt[:nxt]
	pp.at = pp.at[:0]
	for j1 := 0; j1 < k; j1++ {
		for j2 := j1; j2 < k; j2++ {
			pp.at = append(pp.at, j1*k+j2, j2*k+j1)
		}
	}
	pp.fill(x)
}

// pairsPool holds released tables of any shape. GetPairs reuses one,
// growing its buffers when they are short, as the server's pack buffers
// do, so the pool holds no entry per shape a caller ever brought.
var pairsPool sync.Pool

// GetPairs returns the tables of x (Fill) in a pooled Pairs; Release
// hands it back.
func GetPairs(x *series.DesignMatrix, n int) *Pairs {
	pp, _ := pairsPool.Get().(*Pairs)
	if pp == nil {
		pp = new(Pairs)
	}
	pp.Fill(x, n)
	return pp
}

// Release returns the tables to the pool.
func (pp *Pairs) Release() { pairsPool.Put(pp) }

// fill computes both tables from x, zeroing the padding entries.
//
//bfast:kernel
func (pp *Pairs) fill(x *series.DesignMatrix) {
	k, n, nd := pp.k, pp.n, pp.nd
	for t := 0; t < n; t++ {
		e := 0
		for j1 := 0; j1 < k; j1++ {
			x1 := x.Data[j1*nd+t]
			for j2 := j1; j2 < k; j2++ {
				pp.xx[(e/8*n+t)*8+e%8] = x1 * x.Data[j2*nd+t]
				e++
			}
		}
		for ; e < pp.blocks*8; e++ {
			pp.xx[(e/8*n+t)*8+e%8] = 0
		}
	}
	for t := 0; t < nd; t++ {
		for j := 0; j < pp.xBlocks*8; j++ {
			v := 0.0
			if j < k {
				v = x.Data[j*nd+t]
			}
			pp.xt[(j/8*nd+t)*8+j%8] = v
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
func (pp *Pairs) Normals(dates [][]int32, T int, out []float64) {
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
				r := (*[8]float64)(blk[int(t)*8 : int(t)*8+8])
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
