// Package kernels contains the GPU kernels of the paper, implemented
// functionally in float32 (the GPU's arithmetic) and instrumented for the
// gpusim cost model. The two performance-critical kernels of §III-C are
// implemented literally — the register-tiled batched masked matrix
// multiplication of Fig. 4b (including its Y transposition and the
// shared-memory staging buffer) and the shared-memory batched Gauss-Jordan
// inversion of Fig. 5 — together with the unoptimized baselines the paper
// compares against. The remaining kernels (ker 4–10 of Fig. 12) are
// implemented as one staged float32 pipeline whose results are validated
// against the float64 reference in internal/core.
package kernels

import (
	"fmt"
	"math"

	"bfast/internal/series"
)

// Batch32 is the float32 pixel batch: M series of length N, row-major,
// NaN = missing. This mirrors the Y array the paper's kernels stream over.
type Batch32 struct {
	M, N int
	Y    []float32
}

// NewBatch32 validates and wraps a flat float32 pixel matrix.
func NewBatch32(m, n int, y []float32) (*Batch32, error) {
	if m < 0 || n < 0 || len(y) != m*n {
		return nil, fmt.Errorf("kernels: batch length %d != M*N = %d*%d", len(y), m, n)
	}
	return &Batch32{M: m, N: n, Y: y}, nil
}

// FromFloat64 converts a float64 batch (row-major M×N) to float32.
func FromFloat64(m, n int, y []float64) (*Batch32, error) {
	if len(y) != m*n {
		return nil, fmt.Errorf("kernels: batch length %d != M*N = %d*%d", len(y), m, n)
	}
	out := make([]float32, len(y))
	for i, v := range y {
		out[i] = float32(v)
	}
	return &Batch32{M: m, N: n, Y: out}, nil
}

// Row returns pixel i's series (a view).
func (b *Batch32) Row(i int) []float32 { return b.Y[i*b.N : (i+1)*b.N] }

// Sample returns a batch containing every strideth pixel, used to execute
// the simulation on a representative sub-batch and scale the counters.
// stride 1 returns b itself.
func (b *Batch32) Sample(maxM int) (*Batch32, float64) {
	if maxM <= 0 || maxM >= b.M {
		return b, 1
	}
	stride := (b.M + maxM - 1) / maxM
	m := (b.M + stride - 1) / stride
	y := make([]float32, m*b.N)
	for i := 0; i < m; i++ {
		copy(y[i*b.N:(i+1)*b.N], b.Row(i*stride))
	}
	return &Batch32{M: m, N: b.N, Y: y}, float64(b.M) / float64(m)
}

// Design32 is the float32 design matrix (row-major K×N, like
// series.DesignMatrix).
type Design32 struct {
	K, N int
	Data []float32
}

// MakeDesign32 builds the float32 design matrix for N dates, k harmonics
// and frequency f. The trigonometry is evaluated in float64 and rounded,
// matching how the paper's Futhark code computes mkX once on device.
func MakeDesign32(n, k int, f float64) (*Design32, error) {
	d64, err := series.MakeDesign(n, k, f)
	if err != nil {
		return nil, err
	}
	return design32From(d64), nil
}

// Design32From converts a float64 design matrix to float32.
func Design32From(d64 *series.DesignMatrix) *Design32 { return design32From(d64) }

func design32From(d64 *series.DesignMatrix) *Design32 {
	out := &Design32{K: d64.K, N: d64.N, Data: make([]float32, d64.K*d64.N)}
	for i, v := range d64.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// isNaN32 reports whether v is NaN without the float64 round trip.
func isNaN32(v float32) bool { return v != v }

// validMask returns 1.0 for valid values, 0.0 for NaN — the paper's
// (1.0 - isnan(y)) filter factor.
func validMask(v float32) float32 {
	if isNaN32(v) {
		return 0
	}
	return 1
}

// nan32 is the float32 missing-value marker.
func nan32() float32 { return float32(math.NaN()) }
