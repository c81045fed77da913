package tile

import "fmt"

// Schedule is a gathered tile's date classification: the N column-mask
// words run-length encoded into segments of consecutive dates carrying
// the same lane mask (empty dates are dropped entirely). The tile
// adapters (CrossProduct, MatVecHistory, Residuals) read each lane's
// valid dates off it.
//
// The layout is struct-of-arrays so a segment scan is three parallel
// slice walks with no pointer chasing.
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
