package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bfast/internal/obs"
)

// TestDetectBatchSpanTree: under a root span, DetectBatch must attach a
// core.detect_batch span whose children cover the mask sweep and every
// kernel phase of the chosen strategy — the tree the serving layer
// exposes at /debug/bfast/traces. Without a root span the context must
// come back unwrapped (the no-overhead default).
func TestDetectBatchSpanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := randomBatch(rng, 40, 200, 0.4)
	opt := defaultTestOpts(100)

	cases := []struct {
		strategy Strategy
		phases   []string
	}{
		{StrategyOurs, []string{"kernel.mask", "kernel.tiles"}},
		{StrategyRgTlEfSeq, []string{"kernel.mask", "kernel.tiles"}},
		{StrategyFullEfSeq, []string{"kernel.mask", "kernel.fused"}},
	}
	for _, tc := range cases {
		root := obs.NewSpan("request")
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := DetectBatch(ctx, b, opt, BatchConfig{Strategy: tc.strategy}); err != nil {
			t.Fatal(err)
		}
		root.End()
		n := root.Node()
		db := n.Find("core.detect_batch")
		if db == nil {
			t.Fatalf("%v: no core.detect_batch span", tc.strategy)
		}
		if db.Attrs["strategy"] != tc.strategy.String() || db.Attrs["pixels"] != 40 ||
			db.Attrs["dates_nominal"] != 200 || db.Attrs["dates_kept"] != 200 {
			t.Fatalf("%v: detect_batch attrs %v", tc.strategy, db.Attrs)
		}
		for _, phase := range tc.phases {
			ph := db.Find(phase)
			if ph == nil {
				t.Fatalf("%v: missing %s span under core.detect_batch", tc.strategy, phase)
			}
			if ph.DurNs < 0 {
				t.Fatalf("%v: %s duration %d", tc.strategy, phase, ph.DurNs)
			}
			// Every kernel phase runs its sweep on the scheduler, so it
			// must have picked up a sched.foreach child.
			if ph.Find("sched.foreach") == nil {
				t.Fatalf("%v: %s has no sched.foreach child", tc.strategy, phase)
			}
		}
	}
}

// TestDetectPopulatedSpanReportsCompaction: with empty dates dropped,
// core.detect_batch says how many dates the cube had and how many the
// detection kept.
func TestDetectPopulatedSpanReportsCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	b := randomBatch(rng, 40, 200, 0.4)
	for i := 0; i < b.M; i++ {
		for _, d := range []int{0, 1, 63, 64, 150} {
			b.Row(i)[d] = math.NaN()
		}
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, _, err := DetectPopulated(ctx, b, defaultTestOpts(100), BatchConfig{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	n := root.Node()
	db := n.Find("core.detect_batch")
	if db == nil {
		t.Fatal("no core.detect_batch span")
	}
	if db.Attrs["dates_nominal"] != 200 || db.Attrs["dates_kept"] != 195 {
		t.Fatalf("detect_batch attrs %v, want 200 nominal and 195 kept dates", db.Attrs)
	}
}

// TestTilesSpanReportsSharing: the kernel.tiles span must answer "did
// this request share?" — distinct history masks, pixels in classes of
// two or more, and tiles that skipped their own cross product and
// inversion — and must say nothing about classes when no table was
// built (a batch of one tile).
func TestTilesSpanReportsSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const N, n = 200, 100
	opt := defaultTestOpts(n)
	tiles := func(b *Batch) *obs.SpanNode {
		t.Helper()
		root := obs.NewSpan("request")
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := DetectBatch(ctx, b, opt, BatchConfig{Workers: 2, TileWidth: 8}); err != nil {
			t.Fatal(err)
		}
		root.End()
		tree := root.Node()
		sp := tree.Find("kernel.tiles")
		if sp == nil {
			t.Fatal("no kernel.tiles span")
		}
		return sp
	}
	// 4 masks over 64 pixels in runs of 16: every class has 16 members
	// and the count-binned plan keeps every tile inside shared classes.
	shared := tiles(maskedScene(rng, 64, N, randomMasks(rng, 4, N, 0.4), func(i int) int { return i / 16 }))
	for key, want := range map[string]any{"tiles": 8, "mask_classes": 4, "shared_pixels": 64, "tiles_shared": 8} {
		if got := shared.Attrs[key]; got != want {
			t.Errorf("shared scene: %s = %v (%T), want %v", key, got, got, want)
		}
	}
	// Every pixel its own mask: a table, nothing in it to share.
	own := tiles(maskedScene(rng, 24, N, randomMasks(rng, 24, N, 0.4), func(i int) int { return i }))
	for key, want := range map[string]any{"mask_classes": 24, "shared_pixels": 0, "tiles_shared": 0} {
		if got := own.Attrs[key]; got != want {
			t.Errorf("distinct masks: %s = %v (%T), want %v", key, got, got, want)
		}
	}
	// One tile: no table.
	single := tiles(maskedScene(rng, 4, N, randomMasks(rng, 1, N, 0.4), func(int) int { return 0 }))
	if _, ok := single.Attrs["mask_classes"]; ok {
		t.Errorf("single-tile batch built a class table: %v", single.Attrs)
	}
}

// TestDetectBatchNoSpanNoOverheadPath: without a root span the detection
// must not materialize any spans (nil-span fast path end to end).
func TestDetectBatchNoSpanNoOverheadPath(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	b := randomBatch(rng, 8, 120, 0.3)
	ctx := context.Background()
	if sp := obs.SpanFromContext(ctx); sp != nil {
		t.Fatal("background context must carry no span")
	}
	if _, err := DetectBatch(ctx, b, defaultTestOpts(60), BatchConfig{}); err != nil {
		t.Fatal(err)
	}
}
