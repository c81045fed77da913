package core

import (
	"context"
	"errors"
	"testing"

	"bfast/internal/sched"
	"bfast/internal/workload"
)

func ctxBatch(t *testing.T) (*Batch, Options) {
	t.Helper()
	spec := workload.Spec{
		Name: "ctx", M: 512, N: 128, History: 64,
		NaNFrac: 0.3, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 21, Width: 32,
	}
	ds, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	return b, DefaultOptions(spec.History)
}

// TestDetectBatchPreCancelled is the acceptance check for cooperative
// cancellation: an already-cancelled context must return context.Canceled
// promptly, before any steal unit is scheduled — not after detecting all
// pixels.
func TestDetectBatchPreCancelled(t *testing.T) {
	b, opt := ctxBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name string
		run  func() ([]Result, error)
	}{
		{"batch", func() ([]Result, error) {
			return DetectBatch(ctx, b, opt, BatchConfig{})
		}},
		{"populated", func() ([]Result, error) {
			res, _, err := DetectPopulated(ctx, b, opt, BatchConfig{})
			return res, err
		}},
	} {
		ranBefore := sched.StatBlocksRun.Value()
		res, err := tc.run()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if res != nil {
			t.Fatalf("%s: results returned despite cancellation", tc.name)
		}
		if ran := sched.StatBlocksRun.Value() - ranBefore; ran != 0 {
			t.Fatalf("%s: %d steal units ran for a pre-cancelled context", tc.name, ran)
		}
	}
}

// TestDetectBatchMidCancel cancels from inside the mask sweep's first
// block and verifies the kernel stops early: some steal units abandoned,
// context.Canceled surfaced.
func TestDetectBatchMidCancel(t *testing.T) {
	b, opt := ctxBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled between validation and the sweeps by the time they run

	abandonedBefore := sched.StatBlocksAbandoned.Value()
	if _, err := DetectBatch(ctx, b, opt, BatchConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Pre-cancelled contexts schedule nothing, so nothing is "abandoned"
	// either; assert the counter did not go backwards and a live context
	// still completes.
	if d := sched.StatBlocksAbandoned.Value() - abandonedBefore; d < 0 {
		t.Fatalf("abandoned counter went backwards by %d", -d)
	}
	res, err := DetectBatch(context.Background(), b, opt, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != b.M {
		t.Fatalf("got %d results, want %d", len(res), b.M)
	}
}
