package tile

import (
	"fmt"

	"bfast/internal/linalg"
	"bfast/internal/series"
)

// The kernels over a gathered tile: CrossProduct, MatVecHistory and
// Residuals take a time-major Data and its Schedule, compact each lane
// off them (laneOff) and run the lane kernels, so there is one
// implementation of the arithmetic. The detector compacts each lane
// straight from its batch row and calls the lane kernels itself; these
// serve callers that gather tiles, such as a layer-by-layer replay of
// the tile loop.

// laneOff compacts lane p of the tile over its first n dates: the dates
// the schedule marks valid for it go to dates and their values to vals.
// It returns the count.
func laneOff(d *Data, sc *Schedule, p, n int, dates []int32, vals []float64) int {
	c := 0
	for si := 0; si < sc.N; si++ {
		if sc.Mask[si]>>uint(p)&1 == 0 {
			continue
		}
		for t := int(sc.Lo[si]); t < min(int(sc.Hi[si]), n); t++ {
			dates[c] = int32(t)
			vals[c] = d.Y[t*d.T+p]
			c++
		}
	}
	return c
}

// designOf views a K×n history matrix as a design of n dates.
func designOf(xh *linalg.Matrix) *series.DesignMatrix {
	return &series.DesignMatrix{K: xh.Rows, N: xh.Cols, Data: xh.Data}
}

// CrossProduct computes the K×K normal matrix X_h·X_hᵀ of every lane over
// the first xh.Cols dates, writing lane-interleaved output:
// out[(j1*K+j2)*T + p] is lane p's element (j1, j2). xh is K×n with
// n <= d.N; sc must be built from d; out must have K*K*d.T entries.
func CrossProduct(xh *linalg.Matrix, d *Data, sc *Schedule, out []float64) {
	k, n, T := xh.Rows, xh.Cols, d.T
	if n > d.N {
		panic(fmt.Sprintf("tile: cross product over %d dates on a %d-date tile", n, d.N))
	}
	if len(out) != k*k*T {
		panic(fmt.Sprintf("tile: cross product out length %d != %d", len(out), k*k*T))
	}
	pp := GetPairs(designOf(xh), n)
	defer pp.Release()
	dates := make([][]int32, d.P)
	vals := make([]float64, n)
	for p := range dates {
		dates[p] = make([]int32, n)
		dates[p] = dates[p][:laneOff(d, sc, p, n, dates[p], vals)]
	}
	pp.Normals(dates, T, out)
}

// MatVecHistory computes X_h·y_h of every lane over the first xh.Cols
// dates, lane-interleaved: out[j*T+p] is lane p's component j. xh is K×n
// with n <= d.N; sc must be built from d.
func MatVecHistory(xh *linalg.Matrix, d *Data, sc *Schedule, out []float64) {
	k, n, T := xh.Rows, xh.Cols, d.T
	if n > d.N {
		panic(fmt.Sprintf("tile: matvec over %d dates on a %d-date tile", n, d.N))
	}
	if len(out) != k*T {
		panic(fmt.Sprintf("tile: matvec out length %d != %d", len(out), k*T))
	}
	pp := GetPairs(designOf(xh), 0) // the design table alone
	defer pp.Release()
	dates, vals := make([]int32, n), make([]float64, n)
	for p := 0; p < d.P; p++ {
		c := laneOff(d, sc, p, n, dates, vals)
		pp.LaneMatVec(dates[:c], vals[:c], p, T, out)
	}
}

// Residuals computes every lane's compacted residuals r̄ = y − Xᵀβ over
// all d.N dates. beta is lane-interleaved (beta[j*T+p]); the outputs are
// lane-major rows of length d.N: lane p's residuals land in
// r[p*d.N : p*d.N+nVal[p]] with their original date indices in ix, and
// nVal[p] receives the count. sc must be built from d. Lanes whose β is
// unusable (unfitted pixels) still run; their outputs are for the caller
// to ignore.
func Residuals(x *series.DesignMatrix, d *Data, sc *Schedule, beta []float64, r []float64, ix []int32, nVal []int) {
	N, T := d.N, d.T
	if x.N != N {
		panic(fmt.Sprintf("tile: residuals design has %d dates, tile %d", x.N, N))
	}
	if len(r) < d.P*N || len(ix) < d.P*N || len(nVal) < d.P {
		panic("tile: residual buffers too small")
	}
	pp := GetPairs(x, 0) // the design table alone
	defer pp.Release()
	lb := make([]float64, PadK(x.K))
	for p := 0; p < d.P; p++ {
		c := laneOff(d, sc, p, N, ix[p*N:(p+1)*N], r[p*N:(p+1)*N])
		for j := 0; j < x.K; j++ {
			lb[j] = beta[j*T+p]
		}
		pp.LaneResiduals(ix[p*N:p*N+c], r[p*N:p*N+c], lb)
		nVal[p] = c
	}
}
