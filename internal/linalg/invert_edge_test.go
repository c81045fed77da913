package linalg

import (
	"math"
	"testing"
)

// The tests in this file pin the failure paths of the two inversion
// routines against each other: zero pivots, exactly-singular inputs,
// non-finite input propagation, the K=1 scalar case and the non-square
// error paths. The batched tile inversion (GJBatch) inherits these
// semantics lane-wise, so they are the contract the tile kernels rely on.

func TestInvertGaussJordanZeroLeadingPivot(t *testing.T) {
	// Invertible, but with a zero in the (0,0) pivot position. The
	// paper's rotate-up scheme has no pivoting; the rotation can still
	// recover this matrix (row 0 rotates away and a non-zero pivot
	// arrives), so both routines must agree here, or GJ must flag it —
	// either way InvertPivot inverts it.
	a := NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	pinv, err := InvertPivot(a)
	if err != nil {
		t.Fatalf("InvertPivot failed on permutation matrix: %v", err)
	}
	ginv, gerr := InvertGaussJordan(a)
	if gerr == nil && !ginv.Equal(pinv, 1e-12) {
		t.Fatalf("inverses disagree:\n%v\nvs\n%v", ginv, pinv)
	}
}

func TestInvertSingularAgreement(t *testing.T) {
	// Exactly-singular matrices must be flagged by both routines.
	cases := []*Matrix{
		NewMatrixFrom(2, 2, []float64{1, 2, 2, 4}),                 // rank 1
		NewMatrixFrom(3, 3, []float64{1, 2, 4, 2, 4, 8, 4, 8, 16}), // rank 1, exact in floats
		NewMatrix(3, 3), // zero
	}
	for i, a := range cases {
		if _, err := InvertGaussJordan(a); err != ErrSingular {
			t.Fatalf("case %d: InvertGaussJordan err = %v, want ErrSingular", i, err)
		}
		if _, err := InvertPivot(a); err != ErrSingular {
			t.Fatalf("case %d: InvertPivot err = %v, want ErrSingular", i, err)
		}
	}
}

func TestInvertNaNInfPropagation(t *testing.T) {
	// Non-finite inputs must never yield a "successful" non-finite
	// inverse: both routines must return ErrSingular rather than
	// poisoned output.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 4; pos++ {
			data := []float64{4, 1, 1, 3}
			data[pos] = bad
			a := NewMatrixFrom(2, 2, data)
			if _, err := InvertGaussJordan(a); err != ErrSingular {
				t.Fatalf("GaussJordan with %v at %d: err = %v, want ErrSingular", bad, pos, err)
			}
			if _, err := InvertPivot(a); err != ErrSingular {
				t.Fatalf("Pivot with %v at %d: err = %v, want ErrSingular", bad, pos, err)
			}
		}
	}
}

func TestInvertK1(t *testing.T) {
	// The K=1 path: inverse of [v] is [1/v]; [0] and non-finite are
	// singular.
	a := NewMatrixFrom(1, 1, []float64{4})
	for name, invert := range map[string]func(*Matrix) (*Matrix, error){
		"gauss-jordan": InvertGaussJordan,
		"pivot":        InvertPivot,
	} {
		inv, err := invert(a)
		if err != nil {
			t.Fatalf("%s: 1×1 invert failed: %v", name, err)
		}
		if got := inv.At(0, 0); got != 0.25 {
			t.Fatalf("%s: inverse of [4] = %v, want 0.25", name, got)
		}
		for _, v := range []float64{0, math.NaN(), math.Inf(1)} {
			if _, err := invert(NewMatrixFrom(1, 1, []float64{v})); err != ErrSingular {
				t.Fatalf("%s: 1×1 [%v] err = %v, want ErrSingular", name, v, err)
			}
		}
	}
}

func TestInvertNonSquareErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := InvertGaussJordan(a); err == nil || err == ErrSingular {
		t.Fatalf("InvertGaussJordan non-square err = %v, want shape error", err)
	}
	if _, err := InvertPivot(a); err == nil || err == ErrSingular {
		t.Fatalf("InvertPivot non-square err = %v, want shape error", err)
	}
}

// TestWorkspaceSolvesMatchWrappers pins each allocation-free workspace
// solve to its allocating counterpart on the edge matrices above: the
// same verdict and, where the solve succeeds, the same bits of x. The
// workspace is shared across all cases and poisoned with NaN before
// every solve, so a solve that leaves any scratch word unwritten before
// reading it shows up as a NaN or a verdict change. A warm workspace
// must not allocate.
func TestWorkspaceSolvesMatchWrappers(t *testing.T) {
	hilbert := NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			hilbert.Set(i, j, 1/float64(i+j+1))
		}
	}
	cases := map[string]*Matrix{
		"identity":          NewMatrixFrom(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}),
		"spd":               NewMatrixFrom(3, 3, []float64{4, 1, 2, 1, 3, 0.5, 2, 0.5, 5}),
		"singular-rank1":    NewMatrixFrom(3, 3, []float64{1, 2, 4, 2, 4, 8, 4, 8, 16}),
		"zero":              NewMatrix(3, 3),
		"zero-first-pivot":  NewMatrixFrom(2, 2, []float64{0, 1, 1, 0}),
		"zero-first-pivot3": NewMatrixFrom(3, 3, []float64{0, 2, 1, 2, 3, 0, 1, 0, 4}),
		"nan":               NewMatrixFrom(2, 2, []float64{4, math.NaN(), 1, 3}),
		"+inf":              NewMatrixFrom(2, 2, []float64{math.Inf(1), 1, 1, 3}),
		"-inf":              NewMatrixFrom(2, 2, []float64{4, 1, 1, math.Inf(-1)}),
		"near-singular":     NewMatrixFrom(2, 2, []float64{1, 1, 1, 1 + 1e-12}),
		"hilbert6":          hilbert,
		"k1":                NewMatrixFrom(1, 1, []float64{4}),
	}
	var ws Workspace
	for name, a := range cases {
		k := a.Rows
		b := make([]float64, k)
		for i := range b {
			b[i] = float64(i) - 0.5
		}
		solvers := []struct {
			name string
			ws   func(a, b, x []float64) bool
			ref  func() ([]float64, error)
		}{
			{"gauss-jordan", ws.SolveGaussJordan, func() ([]float64, error) {
				inv, err := InvertGaussJordan(a)
				if err != nil {
					return nil, err
				}
				return MatVec(inv, b), nil
			}},
			{"pivot", ws.SolvePivot, func() ([]float64, error) {
				inv, err := InvertPivot(a)
				if err != nil {
					return nil, err
				}
				return MatVec(inv, b), nil
			}},
			{"cholesky", ws.SolveSPD, func() ([]float64, error) { return SolveSPD(a, b) }},
		}
		for _, s := range solvers {
			want, err := s.ref()
			if err != nil && err != ErrSingular {
				t.Fatalf("%s/%s: %v", name, s.name, err)
			}
			poison := ws.buf[:cap(ws.buf)]
			for i := range poison {
				poison[i] = math.NaN()
			}
			x := make([]float64, k)
			ok := s.ws(a.Data, b, x)
			if ok != (err == nil) {
				t.Fatalf("%s/%s: workspace verdict %v, wrapper error %v", name, s.name, ok, err)
			}
			if !ok {
				want = make([]float64, k) // a failed solve leaves x unwritten
			}
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%s: x[%d] = %v, wrapper %v", name, s.name, i, x[i], want[i])
				}
			}
			if n := testing.AllocsPerRun(10, func() { s.ws(a.Data, b, x) }); n != 0 {
				t.Fatalf("%s/%s: warm workspace solve allocates %v times", name, s.name, n)
			}
		}
	}
}
