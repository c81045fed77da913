package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bfast/internal/obs"
)

// TestDetectBatchSpanTree: under a root span, DetectBatch must attach a
// core.detect_batch span whose descendants cover the mask sweep and the
// tiled loop — the trace the serving layer
// exposes at /debug/bfast/traces. Without a root span the context must
// come back unwrapped (the no-overhead default).
func TestDetectBatchSpanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := randomBatch(rng, 40, 200, 0.4)
	opt := defaultTestOpts(100)

	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := DetectBatch(ctx, b, opt, BatchConfig{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans, attrs := root.Records()
	db := findSpan(spans, -1, "core.detect_batch")
	if db == nil {
		t.Fatal("no core.detect_batch span")
	}
	if a := spanAttrs(attrs, db.ID); a["pixels"] != 40 || a["dates_nominal"] != 200 || a["dates_kept"] != 200 {
		t.Fatalf("detect_batch attrs %v", a)
	}
	for _, phase := range []string{"kernel.mask", "kernel.tiles"} {
		ph := findSpan(spans, db.ID, phase)
		if ph == nil {
			t.Fatalf("missing %s span under core.detect_batch", phase)
		}
		if ph.EndNs < ph.StartNs {
			t.Fatalf("%s ends at %d before its start %d", phase, ph.EndNs, ph.StartNs)
		}
		// Every kernel phase runs its sweep on the scheduler, so it
		// must have picked up a sched.foreach child.
		if findSpan(spans, ph.ID, "sched.foreach") == nil {
			t.Fatalf("%s has no sched.foreach child", phase)
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
	spans, attrs := root.Records()
	db := findSpan(spans, -1, "core.detect_batch")
	if db == nil {
		t.Fatal("no core.detect_batch span")
	}
	if a := spanAttrs(attrs, db.ID); a["dates_nominal"] != 200 || a["dates_kept"] != 195 {
		t.Fatalf("detect_batch attrs %v, want 200 nominal and 195 kept dates", a)
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
	tiles := func(b *Batch) map[string]int64 {
		t.Helper()
		root := obs.NewSpan("request")
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := DetectBatch(ctx, b, opt, BatchConfig{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		root.End()
		spans, attrs := root.Records()
		sp := findSpan(spans, -1, "kernel.tiles")
		if sp == nil {
			t.Fatal("no kernel.tiles span")
		}
		return spanAttrs(attrs, sp.ID)
	}
	// 4 masks over 64 pixels in runs of 16: every class has 16 members
	// and the count-binned plan keeps every tile inside shared classes.
	shared := tiles(maskedScene(rng, 64, N, randomMasks(rng, 4, N, 0.4), func(i int) int { return i / 16 }))
	for key, want := range map[string]int64{"tiles": 8, "mask_classes": 4, "shared_pixels": 64, "tiles_shared": 8} {
		if got, ok := shared[key]; !ok || got != want {
			t.Errorf("shared scene: %s = %v (set %v), want %v", key, got, ok, want)
		}
	}
	// Every pixel its own mask: a table, nothing in it to share.
	own := tiles(maskedScene(rng, 24, N, randomMasks(rng, 24, N, 0.4), func(i int) int { return i }))
	for key, want := range map[string]int64{"mask_classes": 24, "shared_pixels": 0, "tiles_shared": 0} {
		if got, ok := own[key]; !ok || got != want {
			t.Errorf("distinct masks: %s = %v (set %v), want %v", key, got, ok, want)
		}
	}
	// One tile: no table.
	single := tiles(maskedScene(rng, 4, N, randomMasks(rng, 1, N, 0.4), func(int) int { return 0 }))
	if _, ok := single["mask_classes"]; ok {
		t.Errorf("single-tile batch built a class table: %v", single)
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

// findSpan returns the first span named name whose parent is parent
// (any parent when parent < 0), or nil.
func findSpan(spans []obs.SpanRecord, parent int32, name string) *obs.SpanRecord {
	for i := range spans {
		if spans[i].Name == name && (parent < 0 || spans[i].Parent == parent) {
			return &spans[i]
		}
	}
	return nil
}

// spanAttrs returns span id's attributes by key.
func spanAttrs(attrs []obs.SpanAttr, id int32) map[string]int64 {
	m := make(map[string]int64)
	for _, a := range attrs {
		if a.Span == id {
			m[a.Key] = a.Value
		}
	}
	return m
}
