package core

import (
	"context"
	"math"
	"testing"

	"bfast/internal/stats"
	"bfast/internal/workload"
)

// TestQueueKeyEquivalence: option structs that compute identical results
// share a key; option structs that differ in any result-affecting field
// do not.
func TestQueueKeyEquivalence(t *testing.T) {
	base := DefaultOptions(206)
	key := func(o Options, n int) string {
		t.Helper()
		k, err := o.QueueKey(n)
		if err != nil {
			t.Fatalf("QueueKey: %v", err)
		}
		return k
	}

	// Explicit Lambda equal to the table lookup collapses onto the
	// Level encoding.
	lam, err := base.ResolveLambda()
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Lambda = lam
	explicit.Level = 0 // unused once Lambda is pinned
	if key(base, 412) != key(explicit, 412) {
		t.Errorf("explicit Lambda %g and Level %g map to different keys", lam, base.Level)
	}

	// MinValidHistory below K is equivalent to K (the kernels raise it).
	low, atK := base, base
	low.MinValidHistory = 2
	atK.MinValidHistory = base.K()
	if key(low, 412) != key(atK, 412) {
		t.Error("MinValidHistory below K should share the key with MinValidHistory == K")
	}

	// Result-affecting differences must split the key.
	for name, mutate := range map[string]func(*Options){
		"history":   func(o *Options) { o.History++ },
		"harmonics": func(o *Options) { o.Harmonics++ },
		"frequency": func(o *Options) { o.Frequency = 365 },
		"hfrac":     func(o *Options) { o.HFrac = 0.5 },
		"level":     func(o *Options) { o.Level = 0.01 },
		"process":   func(o *Options) { o.Process = stats.ProcessCUSUM },
		"solver":    func(o *Options) { o.Solver = SolverCholesky },
		"notrend":   func(o *Options) { o.NoTrend = true },
		"minvalid":  func(o *Options) { o.MinValidHistory = 40 },
	} {
		other := base
		mutate(&other)
		if key(base, 412) == key(other, 412) {
			t.Errorf("%s: differing options collided on one key", name)
		}
	}
	if key(base, 412) == key(base, 413) {
		t.Error("different series lengths collided on one key")
	}
}

// TestQueueKeyInvalidOptions: an option set that cannot resolve its
// boundary scale reports the error instead of fabricating a key.
func TestQueueKeyInvalidOptions(t *testing.T) {
	bad := DefaultOptions(206)
	bad.Level = 0.33 // not in the critical-value table
	if _, err := bad.QueueKey(412); err == nil {
		t.Fatal("QueueKey accepted an unresolvable level")
	}
}

// TestCanonicalOptionsBitIdentical pins the assumption every caller
// keying on canonical options rests on: running DetectBatch with opt.Canonical() returns results
// bit-identical to running it with opt.
func TestCanonicalOptionsBitIdentical(t *testing.T) {
	ds, err := workload.Generate(workload.Spec{
		Name: "canon", M: 64, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(64, 412, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		DefaultOptions(206),
		func() Options { o := DefaultOptions(206); o.MinValidHistory = 3; return o }(),
		func() Options { o := DefaultOptions(206); o.Process = stats.ProcessCUSUM; return o }(),
	} {
		canon, err := opt.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		want, err := DetectBatch(context.Background(), b, opt, BatchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DetectBatch(context.Background(), b, canon, BatchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("result count %d != %d", len(got), len(want))
		}
		for i := range want {
			if !resultBitIdentical(want[i], got[i]) {
				t.Fatalf("pixel %d: canonical options changed the result: %+v vs %+v", i, want[i], got[i])
			}
		}
	}
}

// resultBitIdentical compares two results with exact float semantics
// (NaN == NaN counts as equal).
func resultBitIdentical(a, b Result) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	if a.Status != b.Status || a.BreakIndex != b.BreakIndex ||
		a.ValidHistory != b.ValidHistory || a.Valid != b.Valid ||
		!feq(a.MosumMean, b.MosumMean) || !feq(a.Sigma, b.Sigma) ||
		len(a.Beta) != len(b.Beta) {
		return false
	}
	for j := range a.Beta {
		if !feq(a.Beta[j], b.Beta[j]) {
			return false
		}
	}
	return true
}
