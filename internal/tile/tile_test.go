package tile

import (
	"math"
	"math/bits"
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
// sorted by ascending validity popcount, stable within equal counts, and
// Inverse must invert it — for M below, equal to, and not divisible by T.
func TestPlanBinningPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ m, n, tw int }{
		{1, 70, 8}, {5, 70, 8}, {8, 70, 8}, {9, 70, 8},
		{33, 130, 8}, {64, 130, 4}, {17, 130, 1}, {100, 70, 64},
	} {
		y := randomScene(rng, tc.m, tc.n, 0.5)
		mask := series.NewBatchMask(tc.m, tc.n, y)
		pl := NewPlan(mask, tc.tw)
		if pl.Tiles != (tc.m+tc.tw-1)/tc.tw {
			t.Fatalf("M=%d T=%d: %d tiles", tc.m, tc.tw, pl.Tiles)
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
		inv := pl.Inverse()
		for s, px := range pl.Order {
			if inv[px] != s {
				t.Fatalf("M=%d: Inverse()[Order[%d]] = %d", tc.m, s, inv[px])
			}
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

// TestGatherRoundTrip: gathering then reading back through the
// time-major layout must reproduce each pixel's valid observations
// exactly (masked-out slots are unwritten by contract), and the column
// masks must transpose the per-pixel bitsets.
func TestGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct{ m, n, tw int }{
		{3, 100, 8}, {8, 100, 8}, {21, 200, 8}, {6, 65, 4}, {2, 64, 1},
	} {
		y := randomScene(rng, tc.m, tc.n, 0.4)
		mask := series.NewBatchMask(tc.m, tc.n, y)
		pl := NewPlan(mask, tc.tw)
		d := NewData(tc.tw, tc.n)
		for ti := 0; ti < pl.Tiles; ti++ {
			idx := pl.Indices(ti)
			d.Gather(y, mask, idx)
			if d.P != len(idx) {
				t.Fatalf("P=%d for %d pixels", d.P, len(idx))
			}
			for p, px := range idx {
				vm := mask.RowMask(px)
				for tt := 0; tt < tc.n; tt++ {
					bit := d.ColMask[tt]&(1<<uint(p)) != 0
					if bit != vm.Valid(tt) {
						t.Fatalf("pixel %d date %d: column-mask bit %v, mask %v", px, tt, bit, vm.Valid(tt))
					}
					if bit && d.Y[tt*d.T+p] != y[px*tc.n+tt] {
						t.Fatalf("pixel %d date %d: %v != %v", px, tt, d.Y[tt*d.T+p], y[px*tc.n+tt])
					}
				}
			}
			// Lanes beyond P must be masked out everywhere.
			for tt := 0; tt < tc.n; tt++ {
				if d.ColMask[tt]&^d.FullMask() != 0 {
					t.Fatalf("tile %d: ghost lanes in column mask", ti)
				}
			}
		}
	}
}

// TestScatterInvertsGather: a per-pixel vector gathered into lane-major
// rows and scattered back by Idx must land at the original pixels —
// through the binning permutation and ragged tiles.
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
		d.Scatter(dst, lane, stride)
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

// TestNewDataBounds covers the width and backing guards.
func TestNewDataBounds(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("zero width", func() { NewData(0, 10) })
	assertPanics("over max", func() { NewData(65, 10) })
	d := NewData(4, 10)
	assertPanics("too many pixels", func() {
		d.Gather(make([]float64, 50), series.NewBatchMask(5, 10, make([]float64, 50)), []int{0, 1, 2, 3, 4})
	})
}

// TestPlanWidthClamping: T <= 0 falls back to DefaultWidth and T > 64 is
// clamped to MaxWidth.
func TestPlanWidthClamping(t *testing.T) {
	y := make([]float64, 10*16)
	mask := series.NewBatchMask(10, 16, y)
	if pl := NewPlan(mask, 0); pl.T != DefaultWidth {
		t.Fatalf("T=0 → %d", pl.T)
	}
	if pl := NewPlan(mask, 1000); pl.T != MaxWidth {
		t.Fatalf("T=1000 → %d", pl.T)
	}
}

// TestPlanSkewMetrics: planning must publish the workload-skew
// histograms — one pixel sample per pixel, one waste/spread sample per
// tile — and a uniform scene must show zero padding waste while a
// two-population scene binned into separate tiles must too.
func TestPlanSkewMetrics(t *testing.T) {
	pixBefore := statPixelValid.Count()
	tilesBefore := statPadWaste.Count()
	spreadBefore := statBinSpread.Sum()
	wasteBefore := statPadWaste.Sum()

	// 8 pixels with 30 valid dates, 8 with 60: binned by valid count,
	// each tile is internally uniform -> zero waste, zero spread.
	const m, n, tw = 16, 70, 8
	y := make([]float64, m*n)
	for i := 0; i < m; i++ {
		valid := 30
		if i >= 8 {
			valid = 60
		}
		for t0 := 0; t0 < n; t0++ {
			if t0 < valid {
				y[i*n+t0] = 1
			} else {
				y[i*n+t0] = math.NaN()
			}
		}
	}
	pl := NewPlan(series.NewBatchMask(m, n, y), tw)
	if pl.Tiles != 2 {
		t.Fatalf("tiles = %d, want 2", pl.Tiles)
	}
	if got := statPixelValid.Count() - pixBefore; got != m {
		t.Fatalf("pixel samples = %d, want %d", got, m)
	}
	if got := statPadWaste.Count() - tilesBefore; got != 2 {
		t.Fatalf("tile samples = %d, want 2", got)
	}
	if d := statPadWaste.Sum() - wasteBefore; d != 0 {
		t.Fatalf("uniform bins recorded %v%% padding waste, want 0", d)
	}
	if d := statBinSpread.Sum() - spreadBefore; d != 0 {
		t.Fatalf("uniform bins recorded spread %v, want 0", d)
	}

	// A single tile mixing one 30-valid and one 60-valid pixel must show
	// both waste (100·(1 − 90/120) = 25%) and spread (30).
	wasteBefore = statPadWaste.Sum()
	spreadBefore = statBinSpread.Sum()
	NewPlan(series.NewBatchMask(2, n, y[7*n:9*n]), tw)
	if d := statPadWaste.Sum() - wasteBefore; d != 25 {
		t.Fatalf("mixed tile padding waste = %v%%, want 25", d)
	}
	if d := statBinSpread.Sum() - spreadBefore; d != 30 {
		t.Fatalf("mixed tile spread = %v, want 30", d)
	}
}

// TestGatherThroughDateMap: gathering a subset of the dates through
// MapDates fills the tile exactly as gathering a compacted copy of the
// batch does, and MapDates(nil) restores the identity on the same Data.
func TestGatherThroughDateMap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const m, n, tw = 21, 150, 8
	y := randomScene(rng, m, n, 0.4)
	var dates []int
	for d := 0; d < n; d++ {
		if rng.Intn(3) != 0 {
			dates = append(dates, d)
		}
	}
	k := len(dates)
	compact := make([]float64, m*k)
	for i := 0; i < m; i++ {
		for j, d := range dates {
			compact[i*k+j] = y[i*n+d]
		}
	}
	mask := series.NewBatchMask(m, k, compact)
	pl := NewPlan(mask, tw)
	want, got := NewData(tw, k), NewData(tw, k)
	for _, mapped := range []bool{true, false} {
		src := compact
		if mapped {
			got.MapDates(dates, n)
			src = y
		} else {
			got.MapDates(nil, 0)
		}
		for ti := 0; ti < pl.Tiles; ti++ {
			idx := pl.Indices(ti)
			want.Gather(compact, mask, idx)
			got.Gather(src, mask, idx)
			for d, cm := range want.ColMask {
				if got.ColMask[d] != cm {
					t.Fatalf("mapped=%v tile %d date %d: column mask %b, want %b", mapped, ti, d, got.ColMask[d], cm)
				}
				for ; cm != 0; cm &= cm - 1 {
					p := bits.TrailingZeros64(cm)
					if g, w := got.Y[d*tw+p], want.Y[d*tw+p]; g != w {
						t.Fatalf("mapped=%v tile %d date %d lane %d: %v, want %v", mapped, ti, d, p, g, w)
					}
				}
			}
		}
	}
}
