// Package autotune picks a core.BatchConfig for this host by measuring:
// a startup micro-benchmark sweeps (TileWidth, worker count) candidates
// over a small synthetic scene shaped like the caller's workload and
// keeps the fastest per-pixel configuration. This is the host-side
// analogue of the device tuning behind the paper's Fig. 4/6 numbers —
// the right register-tile/block geometry is a property of the hardware,
// so it is measured, not hardcoded.
//
// Candidate ordering is seeded by the workload-skew instrumentation from
// internal/obs when prior batches have published it (tile.pad.waste_pct
// and sched.loop.imbalance_pct; see DESIGN.md §7): high padding waste
// ranks narrower tiles first, high loop imbalance ranks lower worker
// counts first. The seed only orders the sweep — every candidate is
// still measured — so it breaks measurement-noise ties toward the
// configuration the skew evidence favors.
//
// Results are cached per (host, GOMAXPROCS, K, N, history) both in
// process memory and in a JSON file (default
// os.UserCacheDir()/bfast/autotune.json), so a server does not re-sweep
// on every boot; delete the file or set Config.NoCache to force a fresh
// sweep.
package autotune

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bfast/internal/core"
	"bfast/internal/obs"
	"bfast/internal/tile"
	"bfast/internal/workload"
)

// cacheVersion tags cache entries with the kernel generation that
// produced them; bump it when the tiled kernels change shape so stale
// sweeps are not replayed onto new code. v2: one tiled loop behind both
// tiled strategy names, with mask-class sharing. v3: no strategy at all
// (a v2 entry names one, which no host call takes any more).
const cacheVersion = "v3"

// Config parameterizes a sweep. N and Opt are required (the workload
// shape being tuned for); everything else has measured defaults.
type Config struct {
	// N is the series length and Opt the detection options (history
	// length, harmonics → K) of the workload to tune for.
	N   int
	Opt core.Options

	// SampleM is the synthetic scene's pixel count (default 512).
	SampleM int
	// Reps is the timed repetitions per candidate, best kept (default 3).
	Reps int
	// NaNFrac is the synthetic scene's missing fraction (default 0.5,
	// spatially-correlated clouds — the regime the tiling targets).
	NaNFrac float64

	// TileWidths and Workers override the candidate sets. Defaults: tile
	// widths {4, 8, 16, 32, 64} (clamped to MaxWidth) and workers
	// {1, GOMAXPROCS/2, GOMAXPROCS} deduplicated.
	TileWidths []int
	Workers    []int

	// CacheFile overrides the cache path ("" = default per-user file);
	// NoCache disables both the file and the in-process cache.
	CacheFile string
	NoCache   bool
	// Metrics is the registry whose skew histograms seed the candidate
	// order (default obs.Default()).
	Metrics *obs.Registry
}

// Candidate is one measured sweep point.
type Candidate struct {
	TileWidth int           `json:"tile_width"`
	Workers   int           `json:"workers"`
	PerPixel  time.Duration `json:"per_pixel_ns"`
}

// Seed records the skew-gauge readings that ordered the sweep.
type Seed struct {
	// PadWastePct and ImbalancePct are the means of tile.pad.waste_pct
	// and sched.loop.imbalance_pct at sweep time; Observed reports
	// whether any prior batch had published them.
	PadWastePct  float64 `json:"pad_waste_pct"`
	ImbalancePct float64 `json:"imbalance_pct"`
	Observed     bool    `json:"observed"`
}

// Choice is the sweep's outcome: the fastest configuration and the full
// sweep.
type Choice struct {
	TileWidth int           `json:"tile_width"`
	Workers   int           `json:"workers"`
	PerPixel  time.Duration `json:"per_pixel_ns"`

	Sweep []Candidate `json:"sweep,omitempty"`
	Seed  Seed        `json:"seed"`

	// FromCache reports a cache hit; CacheFile is the file consulted
	// and/or written ("" with NoCache).
	FromCache bool   `json:"-"`
	CacheFile string `json:"-"`
}

// BatchConfig returns the chosen configuration as a core.BatchConfig.
func (c *Choice) BatchConfig() core.BatchConfig {
	return core.BatchConfig{Workers: c.Workers, TileWidth: c.TileWidth}
}

// tolerance is the fraction within which two candidates count as tied;
// ties resolve to the earlier candidate in seeded order.
const tolerance = 0.02

func (c Config) withDefaults() Config {
	if c.SampleM <= 0 {
		c.SampleM = 512
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.NaNFrac <= 0 {
		c.NaNFrac = 0.5
	}
	if len(c.TileWidths) == 0 {
		c.TileWidths = []int{4, 8, 16, 32, 64}
	}
	for i, w := range c.TileWidths {
		if w > tile.MaxWidth {
			c.TileWidths[i] = tile.MaxWidth
		}
	}
	if len(c.Workers) == 0 {
		g := runtime.GOMAXPROCS(0)
		for _, w := range []int{g, (g + 1) / 2, 1} {
			seen := false
			for _, h := range c.Workers {
				if h == w {
					seen = true
				}
			}
			if !seen {
				c.Workers = append(c.Workers, w)
			}
		}
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	return c
}

// key identifies a tuning result: same host, same parallelism budget,
// same problem shape → same best configuration.
func (c Config) key() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("%s/%s/%s/gomaxprocs=%d/K=%d/N=%d/n=%d",
		cacheVersion, host, runtime.GOARCH, runtime.GOMAXPROCS(0),
		c.Opt.K(), c.N, c.Opt.History)
}

var (
	memMu  sync.Mutex
	memory = map[string]*Choice{}
)

// Tune returns the host's best configuration for the workload shape in
// cfg, from cache when available, otherwise by sweeping. The sweep costs
// Reps × |candidates| detections of a SampleM-pixel scene (roughly
// hundreds of milliseconds); cached calls cost a map lookup.
func Tune(ctx context.Context, cfg Config) (*Choice, error) {
	cfg = cfg.withDefaults()
	key := cfg.key()
	if !cfg.NoCache {
		memMu.Lock()
		hit := memory[key]
		memMu.Unlock()
		if hit != nil {
			return hit, nil
		}
		if ch := loadCache(cfg.cachePath(), key); ch != nil {
			memMu.Lock()
			memory[key] = ch
			memMu.Unlock()
			return ch, nil
		}
	}
	ch, err := sweep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.NoCache {
		memMu.Lock()
		memory[key] = ch
		memMu.Unlock()
		saveCache(cfg.cachePath(), key, ch)
	}
	return ch, nil
}

// Resolve applies cfg.Autotune: when set, the returned config carries
// the tuned (workers, tile width) for the given workload
// shape and a cleared Autotune flag; otherwise cfg is returned as-is.
func Resolve(ctx context.Context, bcfg core.BatchConfig, n int, opt core.Options) (core.BatchConfig, error) {
	if !bcfg.Autotune {
		return bcfg, nil
	}
	ch, err := Tune(ctx, Config{N: n, Opt: opt})
	if err != nil {
		return bcfg, err
	}
	out := ch.BatchConfig()
	return out, nil
}

// readSeed snapshots the skew histograms (mean values; zero when no
// batch has run yet in this process).
func readSeed(reg *obs.Registry) Seed {
	var s Seed
	pad := reg.Histogram("tile.pad.waste_pct", nil)
	imb := reg.Histogram("sched.loop.imbalance_pct", nil)
	if n := pad.Count(); n > 0 {
		s.PadWastePct = pad.Sum() / float64(n)
		s.Observed = true
	}
	if n := imb.Count(); n > 0 {
		s.ImbalancePct = imb.Sum() / float64(n)
		s.Observed = true
	}
	return s
}

// orderCandidates applies the skew seed: tile widths widest-first by
// default (widest amortizes the design-matrix loads best), narrowest
// first when padding waste is high; workers largest-first by default,
// smallest-first when steal-loop imbalance is high.
func orderCandidates(cfg Config, seed Seed) (widths, workers []int) {
	widths = append([]int(nil), cfg.TileWidths...)
	workers = append([]int(nil), cfg.Workers...)
	sort.Sort(sort.Reverse(sort.IntSlice(widths)))
	sort.Sort(sort.Reverse(sort.IntSlice(workers)))
	if seed.Observed && seed.PadWastePct > 10 {
		sort.Ints(widths)
	}
	if seed.Observed && seed.ImbalancePct > 20 {
		sort.Ints(workers)
	}
	return widths, workers
}

func sweep(ctx context.Context, cfg Config) (*Choice, error) {
	spec := workload.Spec{
		Name: "autotune", M: cfg.SampleM, N: cfg.N, History: cfg.Opt.History,
		NaNFrac: cfg.NaNFrac, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 11,
	}
	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("autotune: scene: %w", err)
	}
	b, err := core.NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		return nil, fmt.Errorf("autotune: batch: %w", err)
	}
	seed := readSeed(cfg.Metrics)
	widths, workerSet := orderCandidates(cfg, seed)

	ch := &Choice{Seed: seed, CacheFile: cfg.cachePath()}
	// Warm the scheduler and page in the scene before timing anything.
	if _, err := core.DetectBatch(ctx, b, cfg.Opt, core.BatchConfig{}); err != nil {
		return nil, err
	}
	for _, wk := range workerSet {
		for _, tw := range widths {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			bcfg := core.BatchConfig{Workers: wk, TileWidth: tw}
			best := time.Duration(-1)
			for rep := 0; rep < cfg.Reps; rep++ {
				t0 := time.Now()
				if _, err := core.DetectBatch(ctx, b, cfg.Opt, bcfg); err != nil {
					return nil, err
				}
				if d := time.Since(t0); best < 0 || d < best {
					best = d
				}
			}
			perPixel := best / time.Duration(spec.M)
			cand := Candidate{TileWidth: bcfg.ResolvedTileWidth(), Workers: wk, PerPixel: perPixel}
			ch.Sweep = append(ch.Sweep, cand)
			// Strict improvement beyond the tolerance dethrones the
			// incumbent; anything closer is a tie and the earlier
			// (seed-favored) candidate stands.
			if len(ch.Sweep) == 1 || float64(perPixel) < float64(ch.PerPixel)*(1-tolerance) {
				ch.TileWidth = cand.TileWidth
				ch.Workers = wk
				ch.PerPixel = perPixel
			}
		}
	}
	return ch, nil
}

// --- file cache ---

type cacheFile struct {
	Entries map[string]cacheEntry `json:"entries"`
}

type cacheEntry struct {
	Choice  Choice    `json:"choice"`
	Created time.Time `json:"created"`
}

// CachePath returns the on-disk cache location this config resolves to
// ("" when caching is disabled or no user cache dir exists) — the
// flight bundle uses it to ship the cache a node actually served from.
func (c Config) CachePath() string { return c.cachePath() }

func (c Config) cachePath() string {
	if c.NoCache {
		return ""
	}
	if c.CacheFile != "" {
		return c.CacheFile
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "bfast", "autotune.json")
}

// loadCache returns the cached choice for key, or nil (missing file,
// unreadable JSON and absent keys all just mean "sweep").
func loadCache(path, key string) *Choice {
	if path == "" {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f cacheFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil
	}
	e, ok := f.Entries[key]
	if !ok {
		return nil
	}
	ch := e.Choice
	ch.FromCache = true
	ch.CacheFile = path
	return &ch
}

// saveCache merges the choice under key into the cache file, best
// effort: tuning must never fail because the cache directory is
// read-only.
func saveCache(path, key string, ch *Choice) {
	if path == "" {
		return
	}
	f := cacheFile{Entries: map[string]cacheEntry{}}
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &f)
		if f.Entries == nil {
			f.Entries = map[string]cacheEntry{}
		}
	}
	f.Entries[key] = cacheEntry{Choice: *ch, Created: time.Now().UTC()}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, path)
}
