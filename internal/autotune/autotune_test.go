package autotune

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfast/internal/core"
	"bfast/internal/obs"
)

// tinyConfig is a sweep small enough for unit tests: one candidate per
// axis on a 32-pixel scene.
func tinyConfig() Config {
	return Config{
		N: 80, Opt: core.DefaultOptions(40),
		SampleM: 32, Reps: 1,
		TileWidths: []int{8},
		Workers:    []int{1},
		Strategies: []core.Strategy{core.StrategyOurs},
		NoCache:    true,
	}
}

func resetMemory() {
	memMu.Lock()
	memory = map[string]*Choice{}
	memMu.Unlock()
}

func TestTuneSweepTinyShape(t *testing.T) {
	ch, err := Tune(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ch.Strategy != core.StrategyOurs || ch.StrategyName != "ours" {
		t.Fatalf("chose %q, swept only ours", ch.StrategyName)
	}
	if ch.TileWidth != 8 || ch.Workers != 1 {
		t.Fatalf("choice geometry (%d, %d), swept only (8, 1)", ch.TileWidth, ch.Workers)
	}
	if ch.PerPixel <= 0 {
		t.Fatal("per-pixel time must be positive")
	}
	if len(ch.Sweep) != 1 {
		t.Fatalf("sweep recorded %d candidates, want 1", len(ch.Sweep))
	}
	if ch.FromCache {
		t.Fatal("NoCache sweep must not report a cache hit")
	}
	bcfg := ch.BatchConfig()
	if bcfg.Strategy != ch.Strategy || bcfg.TileWidth != ch.TileWidth || bcfg.Workers != ch.Workers {
		t.Fatalf("BatchConfig round-trip lost fields: %+v vs %+v", bcfg, ch)
	}
	// A strategy that was not swept falls back to the overall choice.
	tw, wk := ch.ForStrategy(core.StrategyFullEfSeq)
	if tw != ch.TileWidth || wk != ch.Workers {
		t.Fatalf("ForStrategy fallback gave (%d, %d), want overall (%d, %d)", tw, wk, ch.TileWidth, ch.Workers)
	}
	tw, _ = ch.ForStrategy(core.StrategyOurs)
	if tw != 8 {
		t.Fatalf("ForStrategy(ours) tile width %d, want 8", tw)
	}
}

// TestDefaultSweepIsWidthsTimesWorkers: the two tiled strategy names run
// one loop, so the default sweep has no strategy axis.
func TestDefaultSweepIsWidthsTimesWorkers(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strategies = nil
	cfg.TileWidths = []int{4, 8}
	cfg.Workers = []int{1, 2}
	ch, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Sweep) != 4 {
		t.Fatalf("default sweep measured %d candidates, want 2 widths × 2 workers", len(ch.Sweep))
	}
	if len(ch.PerStrategy) != 1 || ch.Strategy != core.StrategyOurs {
		t.Fatalf("default sweep covered %v and chose %v, want ours alone", ch.PerStrategy, ch.Strategy)
	}
}

// TestTuneIgnoresOlderCacheGeneration: an entry written under an earlier
// cacheVersion (when "ours" meant the staged organisation) is swept
// again, not replayed.
func TestTuneIgnoresOlderCacheGeneration(t *testing.T) {
	resetMemory()
	defer resetMemory()
	cfg := tinyConfig()
	cfg.NoCache = false
	cfg.CacheFile = filepath.Join(t.TempDir(), "autotune.json")
	old := "v1" + strings.TrimPrefix(cfg.withDefaults().key(), cacheVersion)
	saveCache(cfg.CacheFile, old, &Choice{StrategyName: "rgtl-efseq", TileWidth: 64, Workers: 9})
	ch, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.FromCache || ch.TileWidth != 8 || ch.Workers != 1 {
		t.Fatalf("replayed an older generation's entry: %+v", ch)
	}
}

// TestTuneCacheRoundTrip pins the file-cache contract: a second Tune for
// the same (host, K, N, history) key must read the saved choice instead
// of re-sweeping, surviving a process restart (simulated by clearing the
// in-process memo).
func TestTuneCacheRoundTrip(t *testing.T) {
	resetMemory()
	defer resetMemory()
	cacheFile := filepath.Join(t.TempDir(), "autotune.json")
	cfg := tinyConfig()
	cfg.NoCache = false
	cfg.CacheFile = cacheFile

	first, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first call must sweep")
	}
	if _, err := os.Stat(cacheFile); err != nil {
		t.Fatalf("sweep did not write the cache file: %v", err)
	}

	resetMemory() // simulate a process restart: only the file survives
	second, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("second call must hit the file cache")
	}
	if second.Strategy != first.Strategy || second.TileWidth != first.TileWidth || second.Workers != first.Workers {
		t.Fatalf("cache round-trip changed the choice: %+v vs %+v", second, first)
	}

	// Third call hits the in-process memo populated by the file load.
	third, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !third.FromCache {
		t.Fatal("third call must hit the memo")
	}
}

// TestTuneCorruptCacheSweeps pins the never-fail contract of the cache:
// unreadable JSON means "sweep", not an error.
func TestTuneCorruptCacheSweeps(t *testing.T) {
	resetMemory()
	defer resetMemory()
	cacheFile := filepath.Join(t.TempDir(), "autotune.json")
	if err := os.WriteFile(cacheFile, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.NoCache = false
	cfg.CacheFile = cacheFile
	ch, err := Tune(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.FromCache {
		t.Fatal("corrupt cache must force a sweep")
	}
}

// TestResolveNoOp: Resolve leaves configs without the Autotune flag
// untouched — core never pays for a sweep it was not asked for.
func TestResolveNoOp(t *testing.T) {
	in := core.BatchConfig{Strategy: core.StrategyRgTlEfSeq, Workers: 3, TileWidth: 16}
	out, err := Resolve(context.Background(), in, 80, core.DefaultOptions(40))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("Resolve changed a non-autotune config: %+v vs %+v", out, in)
	}
}

// TestOrderCandidatesSeed pins the skew-seeded ordering: wide tiles and
// full parallelism first by default, flipped when the published skew
// gauges say padding waste (narrow tiles) or steal-loop imbalance (fewer
// workers) dominates.
func TestOrderCandidatesSeed(t *testing.T) {
	cfg := Config{TileWidths: []int{4, 8, 16}, Workers: []int{1, 2, 4}}
	widths, workers := orderCandidates(cfg, Seed{})
	if widths[0] != 16 || workers[0] != 4 {
		t.Fatalf("default order must be widest/most-parallel first: %v %v", widths, workers)
	}
	widths, workers = orderCandidates(cfg, Seed{Observed: true, PadWastePct: 50, ImbalancePct: 50})
	if widths[0] != 4 || workers[0] != 1 {
		t.Fatalf("skewed seed must flip both orders: %v %v", widths, workers)
	}
	// Below thresholds the defaults stand even when observed.
	widths, workers = orderCandidates(cfg, Seed{Observed: true, PadWastePct: 5, ImbalancePct: 5})
	if widths[0] != 16 || workers[0] != 4 {
		t.Fatalf("mild skew must keep default order: %v %v", widths, workers)
	}
}

// TestReadSeedFromRegistry: the seed reflects the mean of the published
// skew histograms.
func TestReadSeedFromRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("tile.pad.waste_pct", nil)
	h.Observe(10)
	h.Observe(30)
	s := readSeed(reg)
	if !s.Observed {
		t.Fatal("seed must be observed after histogram samples")
	}
	if s.PadWastePct != 20 {
		t.Fatalf("pad waste mean %v, want 20", s.PadWastePct)
	}
	if s.ImbalancePct != 0 {
		t.Fatalf("imbalance %v, want 0 (never published)", s.ImbalancePct)
	}
}
