// Package tile implements the pixel-tiled execution layout of the batched
// detection strategies: T pixels are gathered into one time-major SoA tile
// (Y[t*T+p]) so the same timestep of all T pixels is contiguous, and every
// kernel pass loads the shared design matrix X once per tile instead of
// once per pixel. This is the CPU analogue of the paper's register tiling
// of the masked batched X_h·X_hᵀ (Fig. 4): one load of X's row updates T
// accumulators held in registers. The per-date validity of the T pixels
// is a single column-mask word; Gather zero-fills the masked slots, so
// the lane loops never branch on it.
//
// The normal matrices are the exception: each lane sums a table of design
// products (Pairs) over its own valid history dates, so its work follows
// its own mask and not the union of its tile-mates'.
//
// Tiles are formed after valid-count binning (Plan): pixel indices are
// sorted by the popcount of their validity bitset, so the pixels sharing a
// tile have near-uniform NaN loads — the same-inner-size grouping the
// paper pads its GPU batches into, applied to the irregular
// missing-value structure.
package tile

import (
	"fmt"
	"math"
	"math/bits"

	"bfast/internal/obs"
	"bfast/internal/series"
)

// Workload-skew introspection (DESIGN.md §7). The pixel and spread
// histograms are published at plan time — planning already popcounts
// every pixel, so they cost one extra pass over the bin structure, not
// over the data; the waste histogram per gathered tile, from its
// schedule (Schedule.PublishWaste).
//
//   - tile.pixel.valid: valid-observation count per pixel — the raw
//     irregularity the binning has to absorb.
//   - tile.pad.waste_pct: per tile, the share of the lane-dates the lane
//     kernels sweep that are masked out, 100·(1 − Σc_p/(P·u)) with u the
//     tile's non-empty dates. Near 0 means the tile's masks align;
//     masks that differ pixel by pixel push it towards their NaN share.
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
		cmin, cmax := counts[idx[0]], counts[idx[0]]
		for _, px := range idx {
			cmin = min(cmin, counts[px])
			cmax = max(cmax, counts[px])
		}
		statBinSpread.Observe(float64(cmax - cmin))
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
	// Idx[p]'s observation at date t. On a date where some lane is valid
	// every active lane's slot is written, +0 where the lane is masked
	// out, so the kernels' lane loops read only gathered values; rows of
	// fully-missing dates and lanes p >= P keep whatever the buffer held,
	// and no kernel reads them.
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
// lane masks, and P and Idx describe the pixels. A fully-missing date
// skips its Y row entirely; on every other date each active lane's slot
// gets its observation or, masked out, +0 — the select keeps the value's
// bits under an all-ones word and clears them under zero, so the copy
// has no lane branch. Lanes beyond len(idx) are cleared in the mask and
// left untouched in Y.
func (d *Data) Gather(y []float64, mask *series.BatchMask, idx []int) {
	n := mask.N
	if n != d.N {
		panic(fmt.Sprintf("tile: gather of %d dates into a %d-date tile", n, d.N))
	}
	if len(idx) > d.T {
		panic(fmt.Sprintf("tile: %d pixels into width-%d tile", len(idx), d.T))
	}
	d.P = len(idx)
	d.Idx = idx
	clear(d.ColMask)
	// Transpose the per-pixel validity bitsets into per-date column masks.
	for p, px := range idx {
		bit := uint64(1) << uint(p)
		for wi, w := range mask.Row(px) {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				if t := base + bits.TrailingZeros64(w); t < n {
					d.ColMask[t] |= bit
				}
			}
		}
	}
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
	for t, m := range d.ColMask {
		if m == 0 {
			continue
		}
		src := t
		if d.dates != nil {
			src = d.dates[t]
		}
		dst := d.Y[t*T : t*T+d.P]
		for p := range dst {
			keep := -(m >> uint(p) & 1)
			dst[p] = math.Float64frombits(math.Float64bits(rows[p][src]) & keep)
		}
	}
}
