package tile

import (
	"math"
	"math/rand"
	"testing"

	"bfast/internal/linalg"
	"bfast/internal/series"
)

// TestKernelsMatchScalarOracle holds the per-lane normal matrices
// (Pairs.Normals and the CrossProduct wrapper) to linalg.MaskedCrossProduct
// and MatVecHistory to linalg.MaskedMatVec, lane by lane and bit for bit,
// over a history of n dates that is not a multiple of 64. The tiles hold
// an all-invalid lane, an all-valid lane carrying ±Inf observations and
// i.i.d.-masked lanes, and they are gathered one after another into one
// buffer first filled with NaN and ±Inf: a masked slot the mat-vec read
// without Gather zeroing it would poison its lane's sums.
func TestKernelsMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const N, n = 150, 97
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, k := range []int{2, 8, 22} {
		xh := linalg.NewMatrix(k, n)
		for i := range xh.Data {
			xh.Data[i] = rng.NormFloat64()
		}
		pp := GetPairs(xh)
		tiles := map[int]*Data{8: NewData(8, N), 16: NewData(16, N)}
		for _, d := range tiles {
			for i := range d.Y {
				d.Y[i] = poison[i%len(poison)]
			}
		}
		for _, c := range []struct{ tw, p int }{{8, 1}, {8, 5}, {8, 8}, {16, 13}, {8, 8}} {
			tw, p := c.tw, c.p
			d, sc := tiles[tw], NewSchedule(N)
			nrm, wrap, rhs := make([]float64, k*k*tw), make([]float64, k*k*tw), make([]float64, k*tw)
			for i := range nrm {
				nrm[i], wrap[i] = math.NaN(), math.NaN()
			}
			// Pixel 0 is all-NaN, pixel 1 all-valid (randomScene).
			y := randomScene(rng, p, N, 0.5)
			if p > 1 {
				y[1*N+3], y[1*N+40] = math.Inf(1), math.Inf(-1)
			}
			mask := series.NewBatchMask(p, N, y)
			idx := make([]int, p)
			for i := range idx {
				idx[i] = i
			}
			d.Gather(y, mask, idx)
			sc.Build(d)
			dates := make([][]int, p)
			for l := range dates {
				dates[l] = series.AppendValidIndices(nil, mask.Row(l), n)
			}
			pp.Normals(dates, tw, nrm)
			CrossProduct(xh, d, sc, wrap)
			MatVecHistory(xh, d, sc, rhs)
			for l := range idx {
				hist := y[l*N : l*N+n]
				wantM := linalg.MaskedCrossProduct(xh, hist)
				wantV := linalg.MaskedMatVec(xh, hist)
				for e, w := range wantM.Data {
					if !sameBits(nrm[e*tw+l], w) || !sameBits(wrap[e*tw+l], w) {
						t.Fatalf("K=%d T=%d P=%d lane %d entry %d: normal %v, wrapper %v, want %v",
							k, tw, p, l, e, nrm[e*tw+l], wrap[e*tw+l], w)
					}
				}
				for j, w := range wantV {
					if !sameBits(rhs[j*tw+l], w) {
						t.Fatalf("K=%d T=%d P=%d lane %d row %d: matvec %v, want %v", k, tw, p, l, j, rhs[j*tw+l], w)
					}
				}
			}
		}
		pp.Release()
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
