// Package linalg provides the dense linear-algebra kernels that underpin
// BFAST-Monitor: ordinary and NaN-masked matrix products, the three
// normal-equation solvers (Gauss-Jordan inversion with and without
// pivoting, Cholesky), allocation-free on a reusable Workspace, and
// batched wrappers that operate on one small matrix per pixel.
//
// All matrices are dense, row-major, and stored in flat slices. Two element
// types are supported: float64 for the reference/library path and float32
// for the kernel/simulator path (the paper's GPU code is single precision).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero-valued r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom wraps data (len must be r*c) without copying.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Equal reports whether m and o have the same shape and elements within tol.
// NaNs in corresponding positions compare equal.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		w := o.Data[i]
		if math.IsNaN(v) || math.IsNaN(w) {
			if math.IsNaN(v) != math.IsNaN(w) {
				return false
			}
			continue
		}
		if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// MatMul computes C = A·B for dense matrices. Panics on shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul shape mismatch %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			// Sparse skip over the design matrix's structural zeros
			// (intercept/harmonic columns). Inputs here are generated
			// design entries, never NaN-coded series data.
			//lint:allow nanguard -- exact-zero sparsity skip; MatMul operands are NaN-free design matrices
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MatVec computes A·x for a dense matrix and vector.
func MatVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("linalg: MatVec shape mismatch %dx%d · %d",
			a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var acc float64
		for j, v := range row {
			acc += v * x[j]
		}
		out[i] = acc
	}
	return out
}

// MaskedCrossProduct computes M = X_h · X_hᵀ where columns q of X_h with
// NaN mask values (mask[q] is NaN) are excluded; X_h is K×n and the result
// is K×K. This is the paper's mmMulFilt (Fig. 4a) for a single pixel:
// the mask is the pixel's raw history series y[:n], and a NaN entry removes
// the corresponding date column from the cross product.
func MaskedCrossProduct(xh *Matrix, mask []float64) *Matrix {
	if xh.Cols != len(mask) {
		panic(fmt.Sprintf("linalg: MaskedCrossProduct mask length %d != %d cols",
			len(mask), xh.Cols))
	}
	k := xh.Rows
	n := xh.Cols
	out := NewMatrix(k, k)
	for j1 := 0; j1 < k; j1++ {
		r1 := xh.Data[j1*n : (j1+1)*n]
		for j2 := j1; j2 < k; j2++ {
			r2 := xh.Data[j2*n : (j2+1)*n]
			var acc float64
			for q := 0; q < n; q++ {
				if math.IsNaN(mask[q]) {
					continue
				}
				acc += r1[q] * r2[q]
			}
			out.Set(j1, j2, acc)
			out.Set(j2, j1, acc)
		}
	}
	return out
}

// MaskedMatVec computes X_h · y where entries with NaN in y are skipped
// (paper's mvMulFilt). X_h is K×n and y has length n; NaN entries of y
// contribute zero.
func MaskedMatVec(xh *Matrix, y []float64) []float64 {
	if xh.Cols != len(y) {
		panic(fmt.Sprintf("linalg: MaskedMatVec length %d != %d cols",
			len(y), xh.Cols))
	}
	out := make([]float64, xh.Rows)
	for i := 0; i < xh.Rows; i++ {
		row := xh.Data[i*xh.Cols : (i+1)*xh.Cols]
		var acc float64
		for q, v := range y {
			if math.IsNaN(v) {
				continue
			}
			acc += row[q] * v
		}
		out[i] = acc
	}
	return out
}
