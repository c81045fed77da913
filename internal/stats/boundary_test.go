package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogPlus(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{-1, 1},
		{0, 1},
		{1, 1},
		{math.E, 1},
		{math.E * math.E, 2},
		{100, math.Log(100)},
	}
	for _, c := range cases {
		if got := LogPlus(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LogPlus(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLogPlusMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return LogPlus(a) <= LogPlus(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundaryPaperFlatRegion(t *testing.T) {
	// For t/n ≤ e the paper boundary is exactly λ.
	lambda := 0.9369
	n := 100
	for t0 := 0; t0 <= int(math.E*float64(n)); t0 += 10 {
		if got := Boundary(BoundaryPaper, lambda, t0, n); math.Abs(got-lambda) > 1e-12 {
			t.Fatalf("t=%d: boundary %v != λ %v in flat region", t0, got, lambda)
		}
	}
}

func TestBoundaryStrucchangeGrowsAfterE(t *testing.T) {
	lambda := 1.0
	n := 10
	// (n+t)/n > e for t > n(e-1) ≈ 17.18
	b1 := Boundary(BoundaryStrucchange, lambda, 18, n)
	b2 := Boundary(BoundaryStrucchange, lambda, 100, n)
	if !(b2 > b1 && b1 > lambda) {
		t.Fatalf("expected growing boundary, got b(18)=%v b(100)=%v", b1, b2)
	}
}

func TestBoundaryMonotoneInT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		lambda := 0.1 + rng.Float64()*2
		kind := BoundaryKind(rng.Intn(2))
		prev := -1.0
		for t0 := 0; t0 < 1000; t0 += 37 {
			b := Boundary(kind, lambda, t0, n)
			if b < prev-1e-12 {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundaryPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	Boundary(BoundaryPaper, 1, 0, 0)
}

func TestCriticalValueKnown(t *testing.T) {
	lam, err := CriticalValue(BoundaryPaper, 0.25, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam-2.9459) > 1e-9 {
		t.Fatalf("λ(paper, 0.25, 0.05) = %v, want 2.9459", lam)
	}
}

func TestCriticalValueMonotoneInLevel(t *testing.T) {
	// Smaller significance level => larger λ.
	for _, kind := range []BoundaryKind{BoundaryPaper, BoundaryStrucchange} {
		for _, h := range []float64{0.25, 0.5, 1.0} {
			prev := 0.0
			for _, lv := range []float64{0.20, 0.10, 0.05, 0.01} {
				lam, err := CriticalValue(kind, h, lv)
				if err != nil {
					t.Fatal(err)
				}
				if lam <= prev {
					t.Fatalf("kind=%v h=%v: λ not increasing as level decreases", kind, h)
				}
				prev = lam
			}
		}
	}
}

func TestCriticalValueMonotoneInH(t *testing.T) {
	// Larger window fraction => larger λ at fixed level.
	for _, kind := range []BoundaryKind{BoundaryPaper, BoundaryStrucchange} {
		for _, lv := range []float64{0.20, 0.10, 0.05, 0.01} {
			prev := 0.0
			for _, h := range []float64{0.25, 0.5, 1.0} {
				lam, err := CriticalValue(kind, h, lv)
				if err != nil {
					t.Fatal(err)
				}
				if lam <= prev {
					t.Fatalf("kind=%v level=%v: λ not increasing in h", kind, lv)
				}
				prev = lam
			}
		}
	}
}

func TestCriticalValueKindsShareTable(t *testing.T) {
	// At the tabulated period-2 horizon both boundary shapes are in their
	// flat log⁺ region and share one λ table.
	for _, h := range []float64{0.25, 0.5, 1.0} {
		for _, lv := range []float64{0.20, 0.10, 0.05, 0.01} {
			p, _ := CriticalValue(BoundaryPaper, h, lv)
			s, _ := CriticalValue(BoundaryStrucchange, h, lv)
			if p != s {
				t.Fatalf("h=%v lv=%v: kinds should share λ, got %v vs %v", h, lv, p, s)
			}
		}
	}
}

func TestCriticalValueUnknown(t *testing.T) {
	if _, err := CriticalValue(BoundaryPaper, 0.3, 0.05); err == nil {
		t.Fatal("expected error for unsupported h")
	}
	if _, err := CriticalValue(BoundaryPaper, 0.25, 0.42); err == nil {
		t.Fatal("expected error for unsupported level")
	}
}

func TestSimulateCriticalValuesSmall(t *testing.T) {
	// A small simulation must reproduce the embedded table within Monte
	// Carlo error, and reject invalid inputs.
	vals, err := SimulateCriticalValues(BoundaryPaper, 0.25, []float64{0.05},
		SimConfig{N: 100, Period: 2, Reps: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := CriticalValue(BoundaryPaper, 0.25, 0.05)
	if math.Abs(vals[0]-want) > 0.4 {
		t.Fatalf("simulated λ %v too far from table value %v", vals[0], want)
	}
	if _, err := SimulateCriticalValues(BoundaryPaper, 0, []float64{0.05}, SimConfig{}); err == nil {
		t.Fatal("expected error for hFrac=0")
	}
	if _, err := SimulateCriticalValues(BoundaryPaper, 0.25, []float64{1.5}, SimConfig{}); err == nil {
		t.Fatal("expected error for level out of range")
	}
}

func TestSimulateCriticalValuesDeterministic(t *testing.T) {
	cfg := SimConfig{N: 80, Period: 4, Reps: 500, Seed: 3}
	a, err := SimulateCriticalValues(BoundaryStrucchange, 0.5, []float64{0.1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCriticalValues(BoundaryStrucchange, 0.5, []float64{0.1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatal("same seed must give same critical value")
	}
}

func TestSigmaFig12(t *testing.T) {
	r := []float64{1, -1, 1, -1, 1, -1, 1, -1, 1, -1} // ss = 10, n = 10
	got := Sigma(SigmaFig12, r, 8, 3)                 // dof = 2
	if want := math.Sqrt(5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", got, want)
	}
}

func TestSigmaSection2(t *testing.T) {
	r := []float64{2, 2} // ss = 8, n = 2... dof = (2-2)*(k+1) = 0 -> 0
	if got := Sigma(SigmaSection2, r, 8, 3); got != 0 {
		t.Fatalf("expected 0 for non-positive dof, got %v", got)
	}
	r = make([]float64, 10)
	for i := range r {
		r[i] = 1
	}
	got := Sigma(SigmaSection2, r, 8, 3) // dof = 8*4 = 32, ss = 10
	if want := math.Sqrt(10.0 / 32.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", got, want)
	}
}

func TestSigmaZeroDof(t *testing.T) {
	r := make([]float64, 8)
	if got := Sigma(SigmaFig12, r, 8, 3); got != 0 {
		t.Fatalf("n == K must give σ̂ = 0, got %v", got)
	}
}

func TestSigmaZeroResiduals(t *testing.T) {
	r := make([]float64, 20)
	if got := Sigma(SigmaFig12, r, 8, 3); got != 0 {
		t.Fatalf("zero residuals must give σ̂ = 0, got %v", got)
	}
}

func TestKindStrings(t *testing.T) {
	if BoundaryPaper.String() != "paper" || BoundaryStrucchange.String() != "strucchange" {
		t.Fatal("BoundaryKind.String broken")
	}
	if SigmaFig12.String() != "fig12" || SigmaSection2.String() != "section2" {
		t.Fatal("SigmaKind.String broken")
	}
	if BoundaryKind(99).String() == "" || SigmaKind(99).String() == "" {
		t.Fatal("unknown kinds should still render")
	}
}

func TestBoundaryForCUSUMPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	BoundaryFor(ProcessCUSUM, BoundaryPaper, 1, 0, 0)
}

func TestSimulateCriticalValuesCUSUMDeterministic(t *testing.T) {
	cfg := SimConfig{N: 80, Period: 2, Reps: 400, Seed: 5, Process: ProcessCUSUM}
	a, err := SimulateCriticalValues(BoundaryPaper, 0.25, []float64{0.1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCriticalValues(BoundaryPaper, 0.25, []float64{0.1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatal("CUSUM simulation must be deterministic")
	}
	// CUSUM and MOSUM critical values must differ (different processes).
	cfg.Process = ProcessMOSUM
	c, err := SimulateCriticalValues(BoundaryPaper, 0.25, []float64{0.1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == c[0] {
		t.Fatal("CUSUM and MOSUM λ should differ")
	}
}
