package tile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bfast/internal/series"
)

// randomScene builds a flat M×N batch with nanFrac missing values and a
// few degenerate pixels (all-NaN, all-valid).
func randomScene(rng *rand.Rand, m, n int, nanFrac float64) []float64 {
	y := make([]float64, m*n)
	for i := range y {
		if rng.Float64() < nanFrac {
			y[i] = math.NaN()
		} else {
			y[i] = rng.NormFloat64()
		}
	}
	if m > 0 {
		for t := 0; t < n; t++ {
			y[0*n+t] = math.NaN() // pixel 0: all NaN
		}
	}
	if m > 1 {
		for t := 0; t < n; t++ {
			y[1*n+t] = rng.NormFloat64() // pixel 1: all valid
		}
	}
	return y
}

// TestPlanBinningPermutation: Order must be a permutation of [0, M),
// sorted by ascending validity popcount and stable within equal counts —
// for M below, equal to, and not divisible by T.
func TestPlanBinningPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ m, n, tw int }{
		{1, 70, 8}, {5, 70, 8}, {8, 70, 8}, {9, 70, 8},
		{33, 130, 8}, {64, 130, 16}, {17, 130, 16}, {100, 70, 64},
	} {
		y := randomScene(rng, tc.m, tc.n, 0.5)
		mask := series.NewBatchMask(tc.m, tc.n, y)
		pl := NewPlan(mask, tc.tw)
		if pl.Tiles != (tc.m+tc.tw-1)/tc.tw {
			t.Fatalf("M=%d T=%d: %d tiles", tc.m, tc.tw, pl.Tiles)
		}
		if len(pl.Order) != tc.m {
			t.Fatalf("M=%d: Order has %d entries", tc.m, len(pl.Order))
		}
		seen := make([]bool, tc.m)
		prevCount, prevIdx := -1, -1
		for _, px := range pl.Order {
			if px < 0 || px >= tc.m || seen[px] {
				t.Fatalf("M=%d: Order is not a permutation", tc.m)
			}
			seen[px] = true
			c := series.CountBits(mask.Row(px), tc.n)
			if c < prevCount {
				t.Fatalf("M=%d: popcounts not ascending", tc.m)
			}
			if c == prevCount && px < prevIdx {
				t.Fatalf("M=%d: binning not stable within count %d", tc.m, c)
			}
			prevCount, prevIdx = c, px
		}
		// Tile widths must cover exactly M slots.
		total := 0
		for ti := 0; ti < pl.Tiles; ti++ {
			w := pl.Width(ti)
			if w < 1 || w > tc.tw || len(pl.Indices(ti)) != w {
				t.Fatalf("M=%d tile %d width %d", tc.m, ti, w)
			}
			total += w
		}
		if total != tc.m {
			t.Fatalf("M=%d: tiles cover %d slots", tc.m, total)
		}
	}
}

// TestPlanOrderMatchesFullHistogram: NewPlan's counting sort over the
// observed popcount range gives exactly the permutation of one over the
// whole range [0, N] — on random masks of every NaN load, one pixel and
// many, all-NaN and all-valid pixels included.
func TestPlanOrderMatchesFullHistogram(t *testing.T) {
	fullRange := func(mask *series.BatchMask) []int {
		m, n := mask.M, mask.N
		order, counts, hist := make([]int, m), make([]int, m), make([]int, n+2)
		for i := range counts {
			counts[i] = series.CountBits(mask.Row(i), n)
			hist[counts[i]+1]++
		}
		for c := 1; c < len(hist); c++ {
			hist[c] += hist[c-1]
		}
		for i, c := range counts {
			order[hist[c]] = i
			hist[c]++
		}
		return order
	}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(70), 1+rng.Intn(300)
		y := randomScene(rng, m, n, rng.Float64())
		mask := series.NewBatchMask(m, n, y)
		want, got := fullRange(mask), NewPlan(mask, 8).Order
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("M=%d N=%d: Order[%d] = %d, the full-range sort gives %d", m, n, i, got[i], want[i])
			}
		}
	}
}

// TestGatherRoundTrip: gathering then reading back through the
// time-major layout must reproduce each pixel's valid observations
// exactly, and the column masks must transpose the per-pixel bitsets
// with no bit set past the tile's pixels. Y starts poisoned, so a valid
// slot Gather skipped would show.
func TestGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct{ m, n, tw int }{
		{3, 100, 8}, {8, 100, 8}, {21, 200, 8}, {6, 65, 16}, {13, 64, 16}, {2, 64, 64},
	} {
		y := randomScene(rng, tc.m, tc.n, 0.4)
		mask := series.NewBatchMask(tc.m, tc.n, y)
		pl := NewPlan(mask, tc.tw)
		d := NewData(tc.tw, tc.n)
		for i := range d.Y {
			d.Y[i] = math.Inf(-1)
		}
		for ti := 0; ti < pl.Tiles; ti++ {
			idx := pl.Indices(ti)
			d.Gather(y, mask, idx)
			if d.P != len(idx) {
				t.Fatalf("P=%d for %d pixels", d.P, len(idx))
			}
			for p, px := range idx {
				row := mask.Row(px)
				for tt := 0; tt < tc.n; tt++ {
					bit := d.ColMask[tt]&(1<<uint(p)) != 0
					if valid := row[tt/64]&(1<<uint(tt%64)) != 0; bit != valid {
						t.Fatalf("pixel %d date %d: column-mask bit %v, mask %v", px, tt, bit, valid)
					}
					if bit && d.Y[tt*d.T+p] != y[px*tc.n+tt] {
						t.Fatalf("pixel %d date %d: %v != %v", px, tt, d.Y[tt*d.T+p], y[px*tc.n+tt])
					}
				}
			}
			// Lanes beyond P must be masked out everywhere.
			for tt := 0; tt < tc.n; tt++ {
				if d.ColMask[tt]>>uint(d.P) != 0 {
					t.Fatalf("tile %d: ghost lanes in column mask", ti)
				}
			}
		}
	}
}

// TestScatterInvertsGather: a per-pixel vector gathered into lane-major
// rows and scattered back by Idx, as the detection drivers scatter their
// results, must land at the original pixels — through the binning
// permutation and ragged tiles.
func TestScatterInvertsGather(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, n, tw, stride = 21, 90, 8, 3
	y := randomScene(rng, m, n, 0.6)
	mask := series.NewBatchMask(m, n, y)
	pl := NewPlan(mask, tw)
	src := make([]float64, m*stride)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	dst := make([]float64, m*stride)
	d := NewData(tw, n)
	lane := make([]float64, tw*stride)
	for ti := 0; ti < pl.Tiles; ti++ {
		idx := pl.Indices(ti)
		d.Gather(y, mask, idx)
		for p, px := range idx {
			copy(lane[p*stride:(p+1)*stride], src[px*stride:(px+1)*stride])
		}
		for p, px := range d.Idx {
			copy(dst[px*stride:(px+1)*stride], lane[p*stride:(p+1)*stride])
		}
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("scatter round-trip differs at %d", i)
		}
	}
}

// TestGatherAllNaNPixels: tiles of entirely-missing pixels must produce
// all-zero column masks and never contribute dates.
func TestGatherAllNaNPixels(t *testing.T) {
	const m, n, tw = 5, 77, 8
	y := make([]float64, m*n)
	for i := range y {
		y[i] = math.NaN()
	}
	mask := series.NewBatchMask(m, n, y)
	pl := NewPlan(mask, tw)
	d := NewData(tw, n)
	d.Gather(y, mask, pl.Indices(0))
	for tt := 0; tt < n; tt++ {
		if d.ColMask[tt] != 0 {
			t.Fatalf("all-NaN tile has column mask %b at date %d", d.ColMask[tt], tt)
		}
	}
}

// TestNewDataBounds covers the width guards of NewData and NewPlan —
// the kernels run whole blocks of eight lanes of one mask word, so any
// other width panics — and the backing guard of Gather.
func TestNewDataBounds(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mask := series.NewBatchMask(9, 10, make([]float64, 90))
	for _, w := range []int{-8, 0, 1, 4, 12, 72} {
		assertPanics(fmt.Sprintf("NewData width %d", w), func() { NewData(w, 10) })
		assertPanics(fmt.Sprintf("NewPlan width %d", w), func() { NewPlan(mask, w) })
	}
	d := NewData(8, 10)
	assertPanics("too many pixels", func() {
		d.Gather(make([]float64, 90), mask, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	})
}

// TestPlanSkewMetrics: planning must publish the workload-skew
// histograms — one pixel sample per pixel, one spread sample per tile —
// and a two-population scene binned into separate tiles must show zero
// spread.
func TestPlanSkewMetrics(t *testing.T) {
	pixBefore := statPixelValid.Count()
	tilesBefore := statBinSpread.Count()
	spreadBefore := statBinSpread.Sum()

	// 8 pixels with 30 valid dates, 8 with 60: binned by valid count,
	// each tile is internally uniform -> zero spread.
	const m, n, tw = 16, 70, 8
	y := prefixScene(m, n, func(i int) int {
		if i >= 8 {
			return 60
		}
		return 30
	})
	pl := NewPlan(series.NewBatchMask(m, n, y), tw)
	if pl.Tiles != 2 {
		t.Fatalf("tiles = %d, want 2", pl.Tiles)
	}
	if got := statPixelValid.Count() - pixBefore; got != m {
		t.Fatalf("pixel samples = %d, want %d", got, m)
	}
	if got := statBinSpread.Count() - tilesBefore; got != 2 {
		t.Fatalf("tile samples = %d, want 2", got)
	}
	if d := statBinSpread.Sum() - spreadBefore; d != 0 {
		t.Fatalf("uniform bins recorded spread %v, want 0", d)
	}

	// A single tile mixing one 30-valid and one 60-valid pixel has
	// spread 30.
	spreadBefore = statBinSpread.Sum()
	NewPlan(series.NewBatchMask(2, n, y[7*n:9*n]), tw)
	if d := statBinSpread.Sum() - spreadBefore; d != 30 {
		t.Fatalf("mixed tile spread = %v, want 30", d)
	}
}

// prefixScene builds an m×n batch whose pixel i is valid on its first
// valid(i) dates and missing after.
func prefixScene(m, n int, valid func(i int) int) []float64 {
	y := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for t := 0; t < n; t++ {
			y[i*n+t] = 1
			if t >= valid(i) {
				y[i*n+t] = math.NaN()
			}
		}
	}
	return y
}
