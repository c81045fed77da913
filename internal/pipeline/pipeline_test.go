package pipeline

import (
	"bytes"
	"context"

	"math"
	"path/filepath"
	"strings"
	"testing"

	"bfast/internal/core"
	"bfast/internal/cube"
	"bfast/internal/gpusim"
	"bfast/internal/obs"
	"bfast/internal/workload"
)

func sceneCube(t *testing.T, w, h, n, hist int, nanFrac, breakFrac float64, seed int64) *cube.Cube {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "scene", M: w * h, N: n, History: hist, NaNFrac: nanFrac,
		Mask: workload.MaskClouds, Width: w, BreakFrac: breakFrac, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cube.FromFlat(w, h, n, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunSingleChunk(t *testing.T) {
	c := sceneCube(t, 16, 16, 128, 64, 0.4, 0.3, 61)
	res, err := Run(context.Background(), c, Config{Options: core.DefaultOptions(64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 1 {
		t.Fatalf("chunks = %d", res.Chunks)
	}
	if res.Phases.Kernel <= 0 || res.Phases.Transfer <= 0 {
		t.Fatalf("modeled phases missing: %+v", res.Phases)
	}
	if res.Map == nil || len(res.Map.Break) != 256 {
		t.Fatal("map not assembled")
	}
	total, neg := res.Map.CountBreaks()
	if total == 0 || neg == 0 {
		t.Fatalf("expected detected breaks, got total=%d neg=%d", total, neg)
	}
	if res.WallInterleaved <= 0 || res.WallInterleaved > res.Phases.Total() {
		t.Fatalf("interleaved wall %v vs total %v", res.WallInterleaved, res.Phases.Total())
	}
}

func TestRunChunkedMatchesUnchunked(t *testing.T) {
	c := sceneCube(t, 20, 10, 96, 48, 0.5, 0.4, 62)
	opt := core.DefaultOptions(48)
	one, err := Run(context.Background(), c, Config{Options: opt, Chunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(context.Background(), c, Config{Options: opt, Chunks: 7})
	if err != nil {
		t.Fatal(err)
	}
	if many.Chunks != 7 {
		t.Fatalf("chunks = %d", many.Chunks)
	}
	for i := range one.Map.Break {
		if one.Map.Break[i] != many.Map.Break[i] {
			t.Fatalf("pixel %d: chunked break %d != unchunked %d",
				i, many.Map.Break[i], one.Map.Break[i])
		}
		a, b := one.Map.Magnitude[i], many.Map.Magnitude[i]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("pixel %d: chunked magnitude %v != %v", i, b, a)
		}
	}
}

func TestRunDropEmptySlices(t *testing.T) {
	// Build a cube with explicit empty slices interleaved. The inner
	// scene uses the iid mask: with 64 pixels at 30% NaN the chance of an
	// accidentally-empty slice is negligible (0.3^64), so exactly the
	// padding slices are dropped.
	ds, err := workload.Generate(workload.Spec{
		Name: "inner", M: 64, N: 64, History: 32, NaNFrac: 0.3,
		Width: 8, BreakFrac: 0.2, Seed: 63,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := cube.FromFlat(8, 8, 64, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	padded, _ := cube.New(8, 8, 128)
	for i := 0; i < 64; i++ {
		src := inner.Series(i)
		dst := padded.Series(i)
		for t0 := 0; t0 < 64; t0++ {
			dst[2*t0] = src[t0] // odd slices stay all-NaN
		}
	}
	opt := core.DefaultOptions(32) // history on the compacted axis
	res, err := Run(context.Background(), padded, Config{Options: opt, DropEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KeptDates) != 64 {
		t.Fatalf("kept %d dates, want 64", len(res.KeptDates))
	}
	for i, k := range res.KeptDates {
		if k != 2*i {
			t.Fatalf("kept date %d = %d, want %d", i, k, 2*i)
		}
	}
	// Result must match running on the unpadded cube directly.
	direct, err := Run(context.Background(), inner, Config{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Map.Break {
		if direct.Map.Break[i] != res.Map.Break[i] {
			t.Fatalf("pixel %d: padded %d != direct %d", i, res.Map.Break[i], direct.Map.Break[i])
		}
	}
}

func TestRunSampledSkipsMap(t *testing.T) {
	c := sceneCube(t, 16, 16, 96, 48, 0.4, 0.3, 64)
	res, err := Run(context.Background(), c, Config{Options: core.DefaultOptions(48), SampleM: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Sampled runs leave the map unpopulated (all NaN magnitudes).
	if frac := MergeMagnitudeNaN(res.Map); frac != 1 {
		t.Fatalf("sampled run should leave map empty, NaN frac = %v", frac)
	}
	if res.Phases.Kernel <= 0 {
		t.Fatal("kernel time still expected from sampled run")
	}
}

func TestRunInvalidOptions(t *testing.T) {
	c := sceneCube(t, 4, 4, 32, 16, 0.2, 0, 65)
	if _, err := Run(context.Background(), c, Config{Options: core.DefaultOptions(32)}); err == nil {
		t.Fatal("expected validation error (history = N)")
	}
}

func TestRunAllEmptyCubeWithDrop(t *testing.T) {
	c, _ := cube.New(4, 4, 16)
	if _, err := Run(context.Background(), c, Config{Options: core.DefaultOptions(8), DropEmpty: true}); err == nil {
		t.Fatal("expected error for all-empty cube")
	}
}

func TestRunTitanZSlowerThan2080Ti(t *testing.T) {
	c := sceneCube(t, 16, 16, 96, 48, 0.4, 0.2, 66)
	opt := core.DefaultOptions(48)
	fast, err := Run(context.Background(), c, Config{Options: opt, Profile: gpusim.RTX2080Ti()})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(context.Background(), c, Config{Options: opt, Profile: gpusim.TitanZ()})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Phases.Kernel <= fast.Phases.Kernel {
		t.Fatalf("TITAN Z (%v) should be slower than 2080 Ti (%v)",
			slow.Phases.Kernel, fast.Phases.Kernel)
	}
}

func TestInterleavedWallBounds(t *testing.T) {
	c := sceneCube(t, 24, 24, 128, 64, 0.5, 0.2, 67)
	res, err := Run(context.Background(), c, Config{Options: core.DefaultOptions(64), Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved wall must be at least the kernel total plus startup and
	// at most the plain sum of phases.
	if res.WallInterleaved < res.Phases.Kernel {
		t.Fatalf("wall %v below kernel total %v", res.WallInterleaved, res.Phases.Kernel)
	}
	if res.WallInterleaved > res.Phases.Total() {
		t.Fatalf("wall %v above phase sum %v", res.WallInterleaved, res.Phases.Total())
	}
}

func TestRunFileMatchesInMemory(t *testing.T) {
	c := sceneCube(t, 12, 10, 96, 48, 0.4, 0.3, 68)
	dir := t.TempDir()
	path := dir + "/scene.bfc"
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(48)
	mem, err := Run(context.Background(), c, Config{Options: opt, Chunks: 5})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunFile(context.Background(), path, Config{Options: opt, Chunks: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mem.Map.Break {
		if mem.Map.Break[i] != streamed.Map.Break[i] {
			t.Fatalf("pixel %d: streamed break %d != in-memory %d",
				i, streamed.Map.Break[i], mem.Map.Break[i])
		}
		a, b := mem.Map.Magnitude[i], streamed.Map.Magnitude[i]
		// The file stores float32, so magnitudes agree to f32 precision.
		if math.Abs(a-b) > 2e-3 && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("pixel %d: magnitude %v vs %v", i, b, a)
		}
	}
	if streamed.Phases.Kernel <= 0 {
		t.Fatal("streamed run has no kernel time")
	}
}

func TestRunFileErrors(t *testing.T) {
	if _, err := RunFile(context.Background(), "/nonexistent.bfc", Config{Options: core.DefaultOptions(8)}); err == nil {
		t.Fatal("missing file must fail")
	}
	c := sceneCube(t, 4, 4, 32, 16, 0.2, 0, 69)
	path := t.TempDir() + "/c.bfc"
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFile(context.Background(), path, Config{Options: core.DefaultOptions(16), DropEmpty: true}); err == nil {
		t.Fatal("DropEmpty in streaming mode must fail")
	}
	if _, err := RunFile(context.Background(), path, Config{Options: core.DefaultOptions(32)}); err == nil {
		t.Fatal("invalid options must fail")
	}
}

func TestSwathSceneDropsEmptySlices(t *testing.T) {
	// The Africa regime: swath padding blanks whole acquisitions, which
	// the §III-D preprocessing removes before the kernels run.
	ds, err := workload.Generate(workload.Spec{
		Name: "africa-like", M: 32 * 32, N: 160, History: 80,
		NaNFrac: 0.9, Mask: workload.MaskSwath, Width: 32, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cube.FromFlat(32, 32, 160, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	compact, kept, err := c.DropEmptySlices()
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) >= 160 {
		t.Fatal("swath scene should contain empty slices to drop")
	}
	// History must be re-expressed on the compacted axis, like the Africa
	// preset does (the paper: 6873 nominal dates -> ~350 with data).
	newHist := 0
	for _, k := range kept {
		if k < 80 {
			newHist++
		}
	}
	if newHist < 8 || newHist >= len(kept) {
		t.Skipf("compacted history too degenerate on this seed: %d", newHist)
	}
	opt := core.DefaultOptions(newHist)
	res, err := Run(context.Background(), compact, Config{Options: opt, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Kernel <= 0 {
		t.Fatal("no kernel work on compacted scene")
	}
	t.Logf("swath scene: %d of 160 slices kept, history %d -> %d", len(kept), 80, newHist)
}

// TestRunObservability: under a root span, Run must emit the
// pipeline.run tree (preprocess, chunking, one pipeline.chunk per
// chunk with phase-ns attrs), and a configured logger must receive one
// debug line per chunk carrying the chunk index.
func TestRunObservability(t *testing.T) {
	c := sceneCube(t, 12, 12, 96, 48, 0.4, 0.3, 63)
	var logBuf bytes.Buffer
	lg, err := obs.NewLogger(&logBuf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := Run(ctx, c, Config{Options: core.DefaultOptions(48), Chunks: 3, Logger: lg}); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans, attrs := root.Records()
	run := findSpan(spans, -1, "pipeline.run")
	if run == nil {
		t.Fatal("no pipeline.run span")
	}
	if findSpan(spans, run.ID, "pipeline.preprocess") == nil || findSpan(spans, run.ID, "pipeline.chunking") == nil {
		t.Fatalf("missing host-phase spans: %+v", spans)
	}
	chunks := 0
	for _, ch := range spans {
		if ch.Parent != run.ID || ch.Name != "pipeline.chunk" {
			continue
		}
		chunks++
		a := spanAttrs(attrs, ch.ID)
		for _, attr := range []string{"idx", "pixels", "stage_ns", "transfer_ns", "kernel_ns"} {
			if _, ok := a[attr]; !ok {
				t.Fatalf("pipeline.chunk missing attr %q: %v", attr, a)
			}
		}
	}
	if chunks != 3 {
		t.Fatalf("chunk spans = %d, want 3", chunks)
	}
	if got := strings.Count(logBuf.String(), `"msg":"pipeline chunk done"`); got != 3 {
		t.Fatalf("chunk debug lines = %d, want 3: %s", got, logBuf.String())
	}
}

// TestRunFileObservability: the streaming driver must emit the same
// per-chunk spans (kernel_ns attached at retire time) and staged/retired
// log pairs.
func TestRunFileObservability(t *testing.T) {
	c := sceneCube(t, 10, 10, 96, 48, 0.4, 0.3, 64)
	path := filepath.Join(t.TempDir(), "scene.bfc")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	lg, err := obs.NewLogger(&logBuf, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := RunFile(ctx, path, Config{Options: core.DefaultOptions(48), Chunks: 2, Logger: lg}); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans, attrs := root.Records()
	run := findSpan(spans, -1, "pipeline.run_file")
	if run == nil {
		t.Fatal("no pipeline.run_file span")
	}
	chunks := 0
	for _, ch := range spans {
		if ch.Parent != run.ID || ch.Name != "pipeline.chunk" {
			continue
		}
		chunks++
		a := spanAttrs(attrs, ch.ID)
		if _, ok := a["kernel_ns"]; !ok {
			t.Fatalf("streamed chunk span missing kernel_ns: %v", a)
		}
	}
	if chunks != 2 {
		t.Fatalf("chunk spans = %d, want 2", chunks)
	}
	if strings.Count(logBuf.String(), "pipeline chunk staged") != 2 ||
		strings.Count(logBuf.String(), "pipeline chunk retired") != 2 {
		t.Fatalf("staged/retired log pairs missing: %s", logBuf.String())
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
