package tile

import (
	"fmt"
	"math/bits"
)

// Schedule is a tile's date classification, computed once per tile and
// shared by every kernel pass over it: the N column-mask words are
// run-length encoded into segments of consecutive dates carrying the
// same lane mask (empty dates are dropped entirely). This hoists the
// mask classification fully out of the kernels' lane loops — a kernel
// sweep tests one mask word per *segment* instead of one per date per
// matrix entry, and under spatially-correlated cloud masks (where
// neighbouring dates share their NaN pattern and binning aligns the
// tile's lanes) segments are long: a handful of dense runs plus a few
// partial edges. Under masks that differ pixel by pixel nearly every
// date is its own segment; the kernels then run the same branch-free
// lane loops over one date at a time.
//
// The layout is struct-of-arrays so the kernels' segment scans are
// three parallel slice walks with no pointer chasing.
type Schedule struct {
	// N is the number of live segments (entries of Lo/Hi/Mask in use).
	N int
	// Lo and Hi bound segment s's date range [Lo[s], Hi[s]), ascending
	// and non-overlapping.
	Lo, Hi []int32
	// Mask[s] is the column-mask word shared by every date of segment s
	// (never zero: empty dates are not represented).
	Mask []uint64
}

// NewSchedule allocates a schedule for tiles of up to n dates (the
// worst case is one segment per date).
func NewSchedule(n int) *Schedule {
	return &Schedule{Lo: make([]int32, n), Hi: make([]int32, n), Mask: make([]uint64, n)}
}

// Build classifies the gathered tile's dates: equal-mask runs merge
// into one segment, empty dates vanish. The schedule buffer is reused
// across tiles (per-worker scratch).
//
//bfast:kernel
func (sc *Schedule) Build(d *Data) {
	if len(sc.Lo) < d.N {
		panic(fmt.Sprintf("tile: schedule sized for %d dates, tile has %d", len(sc.Lo), d.N))
	}
	cm := d.ColMask
	n := len(cm)
	ns := 0
	for t := 0; t < n; {
		m := cm[t]
		if m == 0 {
			t++
			continue
		}
		lo := t
		for t++; t < n && cm[t] == m; t++ {
		}
		sc.Lo[ns] = int32(lo)
		sc.Hi[ns] = int32(t)
		sc.Mask[ns] = m
		ns++
	}
	sc.N = ns
}

// PublishWaste records the tile's padding waste in tile.pad.waste_pct:
// the lane kernels sweep all lanes of every date on which any lane is
// valid, so the waste is 100·(1 − Σc_p/(P·u)), Σc_p the valid
// observations of the tile's P lanes and u its non-empty dates (the
// schedule's segment lengths summed).
//
//bfast:kernel
func (sc *Schedule) PublishWaste(lanes int) {
	valid, u := 0, 0
	for s := 0; s < sc.N; s++ {
		l := int(sc.Hi[s] - sc.Lo[s])
		u += l
		valid += l * bits.OnesCount64(sc.Mask[s])
	}
	if u == 0 {
		statPadWaste.Observe(0)
		return
	}
	statPadWaste.Observe(100 * (1 - float64(valid)/float64(lanes*u)))
}
