package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix cannot be inverted.
var ErrSingular = errors.New("linalg: singular matrix")

// InvertGaussJordan inverts a square matrix using the pivot-free
// Gauss-Jordan elimination of the paper (Fig. 5): the matrix is adjoined
// with the identity and reduced with a fixed "rotate up" scheme — at step q
// row 0 is the pivot row for column q and rows shift upward. This mirrors
// the GPU kernel exactly, including its behaviour on zero pivots (rows are
// rotated unchanged), so the simulator kernels and this host reference can
// be compared bit-for-bit in float32 tests.
//
// For well-conditioned normal matrices (the BFAST use case, K ≤ ~16) this
// is accurate; for general matrices prefer InvertPivot. On ErrSingular the
// returned matrix holds whatever the reduction produced.
func InvertGaussJordan(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: InvertGaussJordan requires square matrix")
	}
	k := a.Rows
	buf := make([]float64, 4*k*k)
	red, ok := gaussJordan(a.Data, k, buf[:2*k*k], buf[2*k*k:])
	out := rightBlock(red, k)
	if !ok {
		return out, ErrSingular
	}
	return out, nil
}

// InvertPivot inverts a square matrix with partially-pivoted Gauss-Jordan
// elimination. This is the robust library path used when the pixel's normal
// matrix is poorly conditioned; the paper's GPU kernel omits pivoting
// because BFAST normal matrices are diagonally dominant in practice.
func InvertPivot(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: InvertPivot requires square matrix")
	}
	k := a.Rows
	sh := make([]float64, 2*k*k)
	if !pivotInverse(a.Data, k, sh) {
		return nil, ErrSingular
	}
	return rightBlock(sh, k), nil
}

// SolveSPD solves A·x = b for a symmetric positive-definite A via Cholesky
// decomposition. BFAST normal matrices X_h·X_hᵀ are SPD whenever the pixel
// has at least K linearly-independent valid history dates, so this is the
// numerically preferred fitting path offered by the library API.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols || a.Rows != len(b) {
		return nil, errors.New("linalg: SolveSPD shape mismatch")
	}
	k := a.Rows
	l := make([]float64, k*k+k)
	x := make([]float64, k)
	if !cholesky(a.Data, b, x, l[:k*k], l[k*k:]) {
		return nil, ErrSingular
	}
	return x, nil
}

// Workspace is caller-owned scratch for solving one K×K normal system
// a·x = b at a time with any of the three solvers, without allocating:
// the zero value is ready, and each solve grows the workspace on first
// use to what that solver needs (Gauss-Jordan 4K², pivoted 2K²,
// Cholesky K²+K words), so a workspace reused at one K allocates only
// once. a is K×K row-major, b and x have length K, and x must not
// alias b. Each solve returns false exactly when its allocating
// counterpart (InvertGaussJordan, InvertPivot, SolveSPD) returns
// ErrSingular, leaving x unwritten; otherwise x holds the same bits as
// that counterpart's inverse times b (MatVec) or solution. A Workspace
// is not safe for concurrent use.
type Workspace struct {
	buf []float64
}

// scratch checks the shapes of a solve and returns n words of scratch.
func (w *Workspace) scratch(a, b, x []float64, n int) []float64 {
	if k := len(b); len(a) != k*k || len(x) != k {
		panic(fmt.Sprintf("linalg: solve of a %d-element matrix with %d- and %d-element vectors", len(a), k, len(x)))
	}
	if cap(w.buf) < n {
		w.buf = make([]float64, n)
	}
	return w.buf[:n]
}

// SolveGaussJordan solves a·x = b through the pivot-free inverse of
// InvertGaussJordan.
func (w *Workspace) SolveGaussJordan(a, b, x []float64) bool {
	k := len(b)
	s := w.scratch(a, b, x, 4*k*k)
	red, ok := gaussJordan(a, k, s[:2*k*k], s[2*k*k:])
	if ok {
		applyInverse(red, k, b, x)
	}
	return ok
}

// SolvePivot solves a·x = b through the partially-pivoted inverse of
// InvertPivot.
func (w *Workspace) SolvePivot(a, b, x []float64) bool {
	k := len(b)
	sh := w.scratch(a, b, x, 2*k*k)
	if !pivotInverse(a, k, sh) {
		return false
	}
	applyInverse(sh, k, b, x)
	return true
}

// SolveSPD solves a·x = b by the Cholesky factorization of SolveSPD.
func (w *Workspace) SolveSPD(a, b, x []float64) bool {
	k := len(b)
	s := w.scratch(a, b, x, k*k+k)
	return cholesky(a, b, x, s[:k*k], s[k*k:])
}

// adjoin writes [a | I] into the k×2k buffer sh. The buffer is reused
// across solves, so the whole right block is rewritten.
//
//bfast:kernel
func adjoin(a []float64, k int, sh []float64) {
	w := 2 * k
	for i := 0; i < k; i++ {
		row := sh[i*w : (i+1)*w]
		copy(row[:k], a[i*k:(i+1)*k])
		clear(row[k:])
		row[k+i] = 1
	}
}

// gaussJordan reduces [a | I] by the paper's pivot-free rotate-up scheme
// (see InvertGaussJordan), double-buffered through the k×2k buffers sh
// and tmp. It returns the buffer holding the reduction, whose right
// block is the inverse, and whether a is invertible: the inverse must be
// finite and the left block within 1e-6 of the identity.
//
//bfast:kernel
func gaussJordan(a []float64, k int, sh, tmp []float64) (red []float64, ok bool) {
	w := 2 * k
	adjoin(a, k, sh)
	for q := 0; q < k; q++ {
		vq := sh[0*w+q]
		for k1 := 0; k1 < k; k1++ {
			for k2 := 0; k2 < w; k2++ {
				var t float64
				// Exact-zero pivot test on purpose: a NaN pivot is != 0,
				// so NaN flows through the division and poisons the left
				// block, which the identity check below rejects — the
				// same propagation the Futhark kernel relies on.
				//lint:allow nanguard -- exact-zero pivot sentinel; NaN pivots propagate and are caught by the identity check
				if vq == 0 {
					t = sh[k1*w+k2]
				} else {
					x := sh[0*w+k2] / vq
					if k1 == k-1 {
						t = x
					} else {
						t = sh[(k1+1)*w+k2] - sh[(k1+1)*w+q]*x
					}
				}
				tmp[k1*w+k2] = t
			}
		}
		sh, tmp = tmp, sh
	}
	// The pivot-free scheme signals singularity by leaving the left block
	// different from the identity (or by producing non-finite values).
	for i := 0; i < k; i++ {
		for _, v := range sh[i*w+k : (i+1)*w] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return sh, false
			}
		}
	}
	return sh, leftBlockIsIdentity(sh, k, w, 1e-6)
}

func leftBlockIsIdentity(sh []float64, k, w int, tol float64) bool {
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			v := sh[i*w+j]
			if math.IsNaN(v) || math.Abs(v-want) > tol {
				return false
			}
		}
	}
	return true
}

// pivotInverse reduces [a | I] in the k×2k buffer sh by partially-pivoted
// Gauss-Jordan elimination, leaving the inverse in the right block. It
// returns false on a zero or non-finite pivot or a non-finite inverse.
//
//bfast:kernel
func pivotInverse(a []float64, k int, sh []float64) bool {
	w := 2 * k
	adjoin(a, k, sh)
	for col := 0; col < k; col++ {
		// Find the pivot row.
		piv, best := -1, 0.0
		for r := col; r < k; r++ {
			if v := math.Abs(sh[r*w+col]); v > best {
				best, piv = v, r
			}
		}
		//lint:allow nanguard -- best is math.Abs-folded and NaN/Inf are rejected explicitly in the same condition
		if piv < 0 || best == 0 || math.IsNaN(best) || math.IsInf(best, 0) {
			// A non-finite pivot means the input carried ±Inf; scaling by
			// 1/±Inf would zero the row and silently yield a garbage
			// finite "inverse", so flag it here instead.
			return false
		}
		if piv != col {
			for j := 0; j < w; j++ {
				sh[col*w+j], sh[piv*w+j] = sh[piv*w+j], sh[col*w+j]
			}
		}
		pv := sh[col*w+col]
		inv := 1 / pv
		for j := 0; j < w; j++ {
			sh[col*w+j] *= inv
		}
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := sh[r*w+col]
			// Exact-zero skip: NaN factors are != 0 and eliminate
			// normally, so missing-value poison still spreads.
			//lint:allow nanguard -- exact-zero elimination skip; NaN factors take the eliminate path
			if f == 0 {
				continue
			}
			for j := 0; j < w; j++ {
				sh[r*w+j] -= f * sh[col*w+j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for _, v := range sh[i*w+k : (i+1)*w] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// cholesky solves a·x = b by factoring a = L·Lᵀ into the k×k scratch l
// and substituting forward through the k-vector y and back into x. It
// returns false, before writing x, when a diagonal sum is ≤ 0 or NaN.
// Every entry of l and y is written before it is read.
//
//bfast:kernel
func cholesky(a, b, x, l, y []float64) bool {
	k := len(b)
	// Cholesky: A = L·Lᵀ with L lower triangular.
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*k+j]
			for p := 0; p < j; p++ {
				sum -= l[i*k+p] * l[j*k+p]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				l[i*k+i] = math.Sqrt(sum)
			} else {
				l[i*k+j] = sum / l[j*k+j]
			}
		}
	}
	// Forward substitution: L·y = b.
	for i := 0; i < k; i++ {
		sum := b[i]
		for p := 0; p < i; p++ {
			sum -= l[i*k+p] * y[p]
		}
		y[i] = sum / l[i*k+i]
	}
	// Back substitution: Lᵀ·x = y.
	for i := k - 1; i >= 0; i-- {
		sum := y[i]
		for p := i + 1; p < k; p++ {
			sum -= l[p*k+i] * x[p]
		}
		x[i] = sum / l[i*k+i]
	}
	return true
}

// applyInverse writes x = A⁻¹·b from a reduced k×2k buffer whose right
// block holds A⁻¹, accumulating each row in column order as MatVec does.
//
//bfast:kernel
func applyInverse(red []float64, k int, b, x []float64) {
	w := 2 * k
	for i := 0; i < k; i++ {
		var acc float64
		for j, v := range red[i*w+k : (i+1)*w] {
			acc += v * b[j]
		}
		x[i] = acc
	}
}

// rightBlock copies the right block of a reduced k×2k buffer into a new
// k×k matrix.
func rightBlock(red []float64, k int) *Matrix {
	out := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(out.Data[i*k:(i+1)*k], red[i*2*k+k:(i+1)*2*k])
	}
	return out
}
