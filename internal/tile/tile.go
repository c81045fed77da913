// Package tile implements the pixel-tiled execution layout of the batched
// detection strategies: T pixels are gathered into one time-major SoA tile
// (Y[t*T+p]) so the same timestep of all T pixels is contiguous, and every
// kernel pass loads the shared design matrix X once per tile instead of
// once per pixel. This is the CPU analogue of the paper's register tiling
// of the masked batched X_h·X_hᵀ (Fig. 4): one load of X's row updates T
// accumulators held in registers, and the per-date validity of the T
// pixels is a single column-mask word, so whole-tile valid dates take a
// branch-free dense path.
//
// Tiles are formed after valid-count binning (Plan): pixel indices are
// sorted by the popcount of their validity bitset, so the pixels sharing a
// tile have near-uniform NaN loads and the dense fast path fires for whole
// tiles — the same-inner-size grouping the paper pads its GPU batches
// into, applied to the irregular missing-value structure.
package tile

import (
	"fmt"
	"math/bits"

	"bfast/internal/obs"
	"bfast/internal/series"
)

// Workload-skew introspection (DESIGN.md §7), published at plan time —
// planning already popcounts every pixel, so the histograms cost one
// extra pass over the bin structure, not over the data.
//
//   - tile.pixel.valid: valid-observation count per pixel — the raw
//     irregularity the binning has to absorb.
//   - tile.pad.waste_pct: per tile, the fraction of padded kernel work
//     wasted on invalid slots, 100·(1 − Σc_p/(P·c_max)). Near 0 means
//     binning found near-uniform tiles; large values mean the scene's
//     valid counts are too spread for the tile width.
//   - tile.bin.spread: per tile, c_max − c_min of its pixels' valid
//     counts — the residual non-uniformity inside one tile.
var (
	statTiles      = obs.Default().Counter("tile.tiles")
	statPixelValid = obs.Default().Histogram("tile.pixel.valid", []float64{8, 16, 32, 64, 128, 256, 512, 1024})
	statPadWaste   = obs.Default().Histogram("tile.pad.waste_pct", []float64{0.5, 1, 2, 5, 10, 25, 50})
	statBinSpread  = obs.Default().Histogram("tile.bin.spread", []float64{0, 1, 2, 4, 8, 16, 32, 64})
)

// DefaultWidth is the default tile width T. Eight float64 accumulators
// fit the architectural register budget of amd64/arm64, and eight mask
// bits per date keep the column mask in a single byte of the word.
const DefaultWidth = 8

// MaxWidth bounds T so a tile's per-date validity fits one uint64
// column-mask word.
const MaxWidth = 64

// MaxK bounds the design-matrix rows the tile kernels handle with
// stack scratch. K = 2k+2 regressors, so 32 covers every harmonic
// order k ≤ 15 — the paper sweeps k ≤ 10.
const MaxK = 32

// Plan is the binned assignment of batch pixels to tiles: Order is a
// permutation of [0, M) sorted by ascending validity popcount (stable, so
// equal-count pixels keep their spatial adjacency — neighbouring pixels
// under the same cloud share their NaN pattern, which aligns the tile's
// column masks). Tile ti owns the pixels Order[ti*T : ti*T+Width(ti)].
type Plan struct {
	// T is the tile width (pixels per tile).
	T int
	// M is the number of pixels planned.
	M int
	// N is the number of dates per pixel.
	N int
	// Order is the binned pixel permutation: Order[slot] = original pixel.
	Order []int
	// Tiles is the number of tiles, ceil(M/T); the last may be ragged.
	Tiles int
}

// NewPlan bins the batch's pixels by validity popcount into tiles of
// width t (<= 0 means DefaultWidth). The sort is a counting sort over
// the popcount range [0, N] — deterministic and stable.
func NewPlan(mask *series.BatchMask, t int) *Plan {
	if t <= 0 {
		t = DefaultWidth
	}
	if t > MaxWidth {
		t = MaxWidth
	}
	m, n := mask.M, mask.N
	pl := &Plan{T: t, M: m, N: n, Order: make([]int, m), Tiles: (m + t - 1) / t}
	counts := make([]int, m)
	hist := make([]int, n+2)
	for i := 0; i < m; i++ {
		c := series.CountBits(mask.Row(i), n)
		counts[i] = c
		hist[c+1]++
	}
	for c := 1; c < len(hist); c++ {
		hist[c] += hist[c-1]
	}
	for i := 0; i < m; i++ {
		pl.Order[hist[counts[i]]] = i
		hist[counts[i]]++
	}
	pl.publishSkew(counts)
	return pl
}

// publishSkew records the plan's workload-skew histograms from the
// per-pixel valid counts (batch order; tile membership via Order).
func (pl *Plan) publishSkew(counts []int) {
	statTiles.Add(int64(pl.Tiles))
	for _, c := range counts {
		statPixelValid.Observe(float64(c))
	}
	for ti := 0; ti < pl.Tiles; ti++ {
		idx := pl.Indices(ti)
		cmin, cmax, sum := counts[idx[0]], counts[idx[0]], 0
		for _, px := range idx {
			c := counts[px]
			sum += c
			if c < cmin {
				cmin = c
			}
			if c > cmax {
				cmax = c
			}
		}
		statBinSpread.Observe(float64(cmax - cmin))
		if cmax > 0 {
			statPadWaste.Observe(100 * (1 - float64(sum)/float64(len(idx)*cmax)))
		} else {
			statPadWaste.Observe(0)
		}
	}
}

// Width returns the number of pixels in tile ti (T, or the ragged tail).
func (pl *Plan) Width(ti int) int {
	if w := pl.M - ti*pl.T; w < pl.T {
		return w
	}
	return pl.T
}

// Indices returns the original pixel indices of tile ti (a view into
// Order, not a copy).
func (pl *Plan) Indices(ti int) []int {
	lo := ti * pl.T
	return pl.Order[lo : lo+pl.Width(ti)]
}

// Inverse returns the inverse permutation: Inverse()[pixel] = slot. It is
// the scatter map from tiled slots back to batch order.
func (pl *Plan) Inverse() []int {
	inv := make([]int, pl.M)
	for s, px := range pl.Order {
		inv[px] = s
	}
	return inv
}

// Data is one gathered tile: P (≤ T) pixel series of length N in
// time-major layout, plus the per-date column masks. The buffers are
// per-worker scratch, reused across tiles and (pooled) across calls.
type Data struct {
	// T is the lane stride of Y (slot capacity); P is the number of
	// active lanes (ragged last tile has P < T).
	T, P int
	// N is the number of dates.
	N int
	// Y holds the gathered series, time-major: Y[t*T+p] is pixel
	// Idx[p]'s observation at date t, written only where the pixel is
	// valid — masked-out slots (and lanes p >= P) keep whatever the
	// buffer held, and no kernel reads them.
	Y []float64
	// ColMask holds one word per date: bit p set iff lane p is valid at
	// that date — the transpose of the per-pixel validity bitsets.
	ColMask []uint64
	// Idx maps lanes to original pixel indices (a view into the Plan's
	// Order, set by Gather).
	Idx []int

	// dates and stride are the date map set by MapDates (nil: identity).
	dates  []int
	stride int
}

// NewData allocates a tile buffer for width t and n dates.
func NewData(t, n int) *Data {
	if t <= 0 || t > MaxWidth {
		panic(fmt.Sprintf("tile: width %d out of range (1..%d)", t, MaxWidth))
	}
	return &Data{T: t, N: n, Y: make([]float64, n*t), ColMask: make([]uint64, n)}
}

// MapDates sets the date map later Gathers read through: tile date t
// comes from column dates[t] of source rows stride values long, so a
// tile can cover a subset of a batch's dates (the populated ones of a
// cube) without the subset being copied out first. mask, as given to
// Gather, then describes the mapped dates. nil dates restores the
// identity, rows of N values, which is what NewData starts with.
func (d *Data) MapDates(dates []int, stride int) {
	if dates != nil && len(dates) != d.N {
		panic(fmt.Sprintf("tile: date map of %d dates for a %d-date tile", len(dates), d.N))
	}
	d.dates, d.stride = dates, stride
}

// Gather transposes the pixels idx (original batch indices, at most T of
// them) from the row-major batch y (stride mask.N, or the MapDates
// stride) into the tile: Y becomes time-major and ColMask the per-date
// lane masks. Only valid observations are written — a fully-missing
// date skips its Y row entirely and masked-out slots keep stale buffer
// contents (no kernel reads them). Lanes beyond len(idx) are cleared in
// the mask and left untouched in Y.
func (d *Data) Gather(y []float64, mask *series.BatchMask, idx []int) {
	d.GatherMask(mask, idx)
	stride := d.N
	if d.dates != nil {
		stride = d.stride
	}
	var rows [MaxWidth][]float64
	for p, px := range idx {
		rows[p] = y[px*stride : (px+1)*stride]
	}
	// Copy observations date-outer: the writes stream sequentially
	// through Y (the reads walk T parallel row cursors) instead of
	// striding T words apart per pixel.
	T := d.T
	full := d.FullMask()
	for t, m := range d.ColMask {
		src := t
		if d.dates != nil {
			src = d.dates[t]
		}
		switch m {
		case 0:
		case full:
			dst := d.Y[t*T : t*T+d.P]
			for p := range dst {
				dst[p] = rows[p][src]
			}
		default:
			base := t * T
			for ; m != 0; m &= m - 1 {
				p := bits.TrailingZeros64(m)
				d.Y[base+p] = rows[p][src]
			}
		}
	}
}

// GatherMask is the mask half of Gather: it sets P, Idx and ColMask for
// the pixels idx and leaves Y alone. It is all the cross product needs
// (X_h·X_hᵀ reads the schedule, never Y), so the mask-class pass of
// core.DetectBatch builds its tiles of class representatives with it.
func (d *Data) GatherMask(mask *series.BatchMask, idx []int) {
	n := mask.N
	if n != d.N {
		panic(fmt.Sprintf("tile: gather of %d dates into a %d-date tile", n, d.N))
	}
	if len(idx) > d.T {
		panic(fmt.Sprintf("tile: %d pixels into width-%d tile", len(idx), d.T))
	}
	d.P = len(idx)
	d.Idx = idx
	for t := range d.ColMask {
		d.ColMask[t] = 0
	}
	// Transpose the per-pixel validity bitsets into per-date column masks.
	for p, px := range idx {
		bit := uint64(1) << uint(p)
		for wi, w := range mask.Row(px) {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				t := base + bits.TrailingZeros64(w)
				if t < n {
					d.ColMask[t] |= bit
				}
			}
		}
	}
}

// Scatter copies the lane-major per-pixel vectors src (stride per lane
// `stride`, lane p at src[p*stride:...]) back to batch order in dst
// (stride `stride` per pixel) — the inverse of Gather for per-pixel
// outputs. Used by tests to check round-trips; the detection drivers
// scatter per-pixel results directly by Idx.
func (d *Data) Scatter(dst, src []float64, stride int) {
	for p, px := range d.Idx {
		copy(dst[px*stride:(px+1)*stride], src[p*stride:(p+1)*stride])
	}
}

// FullMask returns the column-mask word with all P active lanes set.
func (d *Data) FullMask() uint64 {
	if d.P == MaxWidth {
		return ^uint64(0)
	}
	return uint64(1)<<uint(d.P) - 1
}
