// Package tile implements the pixel-tiled execution layout of the batched
// detection strategies. Pixels are binned by their valid-observation
// count (Plan): pixel indices are sorted by the popcount of their
// validity bitset, so the pixels sharing a tile have near-uniform NaN
// loads — the same-inner-size grouping the paper pads its GPU batches
// into, applied to the irregular missing-value structure. A tile of T
// pixels is the detector's unit of work, and its K×K normal systems are
// solved together (linalg.GJBatch).
//
// Inside a tile every pixel (a lane) is compacted on its own: its valid
// dates and values are read straight from its mask and batch rows
// (Compact), and the lane kernels — the normal matrix (Pairs.Normals),
// the history right-hand side (LaneMatVec) and the residual pass
// (LaneResiduals) — walk only that list, reading the design through
// tables filled once per batch (Pairs). A lane therefore does no work on
// the dates it is missing, whatever its tile-mates' masks are: the NaN
// structure is found once, and only the values a pixel needs are touched
// (the paper's §III-C argument).
//
// Data, Gather and Schedule are the time-major transposed tile and its
// date segments; the detector does not build them. The tile adapters
// (adapters.go) run the lane kernels over one.
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
//   - tile.bin.spread: per tile, c_max − c_min of its pixels' valid
//     counts — the residual non-uniformity inside one tile.
var (
	statTiles      = obs.Default().Counter("tile.tiles")
	statPixelValid = obs.Default().Histogram("tile.pixel.valid", []float64{8, 16, 32, 64, 128, 256, 512, 1024})
	statBinSpread  = obs.Default().Histogram("tile.bin.spread", []float64{0, 1, 2, 4, 8, 16, 32, 64})
)

// DefaultWidth is the tile width T the detector runs. Eight float64
// accumulators fit the architectural register budget of amd64/arm64,
// and eight mask bits per date keep the column mask in a single byte of
// the word.
const DefaultWidth = 8

// MaxWidth bounds T so a tile's per-date validity fits one uint64
// column-mask word.
const MaxWidth = 64

// checkWidth panics unless t is a width the kernels run: whole blocks of
// eight lanes, one column-mask word.
func checkWidth(t int) {
	if t <= 0 || t > MaxWidth || t%8 != 0 {
		panic(fmt.Sprintf("tile: width %d is not a multiple of 8 in 8..%d", t, MaxWidth))
	}
}

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
	// Tiles is the number of tiles, ceil(M/T); the last may be short.
	Tiles int
}

// NewPlan bins the batch's pixels by validity popcount into tiles of
// width t, a positive multiple of 8 up to MaxWidth. The sort is a
// counting sort over the observed popcount range [cmin, cmax] —
// deterministic and stable, so the order is the one a histogram over
// all of [0, N] gives, at the size of the spread actually present (one
// bucket for a 1-pixel call).
func NewPlan(mask *series.BatchMask, t int) *Plan {
	checkWidth(t)
	m, n := mask.M, mask.N
	pl := &Plan{T: t, M: m, N: n, Order: make([]int, m), Tiles: (m + t - 1) / t}
	counts := make([]int, m)
	cmin, cmax := n, 0
	for i := 0; i < m; i++ {
		c := series.CountBits(mask.Row(i), n)
		counts[i] = c
		cmin, cmax = min(cmin, c), max(cmax, c)
	}
	if m > 0 {
		hist := make([]int, cmax-cmin+2)
		for _, c := range counts {
			hist[c-cmin+1]++
		}
		for c := 1; c < len(hist); c++ {
			hist[c] += hist[c-1]
		}
		for i, c := range counts {
			pl.Order[hist[c-cmin]] = i
			hist[c-cmin]++
		}
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

// Width returns the number of pixels in tile ti (T, or fewer in the last).
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
	// active lanes (a short last tile has P < T).
	T, P int
	// N is the number of dates.
	N int
	// Y holds the gathered series, time-major: Y[t*T+p] is pixel
	// Idx[p]'s observation at date t where ColMask marks it valid; every
	// other slot keeps whatever the buffer held.
	Y []float64
	// ColMask holds one word per date: bit p set iff lane p is valid at
	// that date — the transpose of the per-pixel validity bitsets.
	ColMask []uint64
	// Idx maps lanes to original pixel indices (a view into the Plan's
	// Order, set by Gather).
	Idx []int
}

// NewData allocates a tile buffer for width t, a positive multiple of 8
// up to MaxWidth, and n dates.
func NewData(t, n int) *Data {
	checkWidth(t)
	return &Data{T: t, N: n, Y: make([]float64, n*t), ColMask: make([]uint64, n)}
}

// Gather transposes the pixels idx (original batch indices, at most T of
// them) from the row-major batch y (stride mask.N) into the tile: Y
// becomes time-major and ColMask the per-date lane masks, and P and Idx
// describe the pixels. Only the valid slots of Y are written; the lane
// walks over a tile (adapters.go) read no other.
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
	T := d.T
	for p, px := range idx {
		bit := uint64(1) << uint(p)
		row := y[px*n : (px+1)*n]
		for wi, w := range mask.Row(px) {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				if t := base + bits.TrailingZeros64(w); t < n {
					d.ColMask[t] |= bit
					d.Y[t*T+p] = row[t]
				}
			}
		}
	}
}
