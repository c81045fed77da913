package core

import (
	"context"
	"time"

	"bfast/internal/series"
	"bfast/internal/tile"
)

// Mask-class sharing. The normal matrix X_h·X_hᵀ and its inverse depend
// on a pixel only through its history-period validity bits — the series
// values enter the fit through the right-hand side alone. Pixels whose
// first History bits are equal (a "mask class"; clouds are spatially
// coherent, so real scenes have few) therefore share one inverse: it is
// built and inverted once, by the same lane kernels every pixel runs
// through, and fanned out to the class's lanes ahead of the per-lane
// β = inverse · rhs. A lane kernel's result does not depend on which
// lane it occupies or on its neighbours, so the shared inverse carries
// exactly the bits the member would have computed itself, and a
// singular normal matrix is singular for every member.

// maskGroups is the exact partition of a batch's fittable pixels by
// history mask.
type maskGroups struct {
	// of[px] is the pixel's class, or -1 when the pixel has fewer than
	// minHist valid history observations and is never fitted.
	of []int32
	// rep[c] is the first pixel of class c, size[c] its member count.
	rep, size []int32
}

// hashWords mixes a history mask, its last word cut to the history
// length by tail, into a table hash. Only a candidate finder: equal
// hashes never merge pixels, the word comparison in groupByHistoryMask
// does.
func hashWords(words []uint64, tail uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	last := len(words) - 1
	for i, w := range words {
		if i == last {
			w &= tail
		}
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// groupByHistoryMask partitions the pixels with at least minHist valid
// history observations by their first n validity bits. hash finds the
// candidate class in an open-addressed table; membership is decided by
// comparing the pixel's words with the class representative's.
func groupByHistoryMask(mask *series.BatchMask, n, minHist int, hash func(words []uint64, tail uint64) uint64) maskGroups {
	hw := series.MaskWords(n)
	tail := series.AllValidWord
	if r := n % 64; r != 0 {
		tail = uint64(1)<<uint(r) - 1
	}
	g := maskGroups{of: make([]int32, mask.M)}
	size := 2
	for size < 2*mask.M {
		size <<= 1
	}
	slots := make([]int32, size) // class+1; 0 = empty
	for px := 0; px < mask.M; px++ {
		words := mask.Row(px)[:hw]
		if series.CountBits(words, n) < minHist {
			g.of[px] = -1
			continue
		}
		slot := int(hash(words, tail)) & (size - 1)
		for {
			c := slots[slot] - 1
			if c < 0 {
				c = int32(len(g.rep))
				slots[slot] = c + 1
				g.rep = append(g.rep, int32(px))
				g.size = append(g.size, 0)
			} else if !sameHistoryMask(words, mask.Row(int(g.rep[c]))[:hw], tail) {
				slot = (slot + 1) & (size - 1)
				continue
			}
			g.of[px] = c
			g.size[c]++
			break
		}
	}
	return g
}

// sameHistoryMask compares two history masks word by word, the last word
// under tail (bits at or beyond the history length belong to the
// monitoring period and do not enter the fit).
func sameHistoryMask(a, b []uint64, tail uint64) bool {
	last := len(a) - 1
	for i, w := range a {
		d := w ^ b[i]
		if i == last {
			d &= tail
		}
		if d != 0 {
			return false
		}
	}
	return true
}

// maskClasses holds the inverses of the classes with at least two
// members; a class of one gains nothing from the table and its pixel
// takes the tile's own kernels.
type maskClasses struct {
	// shared[px] indexes the pixel's class in inv/sing, or is -1.
	shared []int32
	inv    []float64 // K×K row-major inverse per shared class
	sing   []bool    // the class's normal matrix is singular
	// classes counts the distinct history masks among fittable pixels,
	// pixels the members of the shared ones.
	classes, pixels int
}

// newMaskClasses groups the batch and inverts one normal matrix per
// shared class: the class representatives are taken T at a time, their
// normal matrices summed from pp by the per-lane kernel the tile loop
// runs (laneNormals) and inverted by GJBatch.Invert, one group per steal
// unit on the shared scheduler under ctx. No Y is gathered: the normal
// matrix reads only the mask.
func newMaskClasses(ctx context.Context, mask *series.BatchMask, pp *tile.Pairs, opt Options, cfg BatchConfig) (*maskClasses, error) {
	K, T := opt.K(), cfg.tileWidth()
	g := groupByHistoryMask(mask, opt.History, opt.minHist(), hashWords)
	mc := &maskClasses{shared: g.of, classes: len(g.rep)}
	var reps []int // representative pixel per shared class
	index := make([]int32, len(g.rep))
	for c, sz := range g.size {
		index[c] = -1
		if sz >= 2 {
			index[c] = int32(len(reps))
			reps = append(reps, int(g.rep[c]))
			mc.pixels += int(sz)
		}
	}
	for px, c := range mc.shared {
		if c >= 0 {
			mc.shared[px] = index[c]
		}
	}
	mc.inv = make([]float64, len(reps)*K*K)
	mc.sing = make([]bool, len(reps))
	key := scratchKey{K, mask.N, T}
	tiles := (len(reps) + T - 1) / T
	err := forEachTileScratch(ctx, key, tiles, cfg.Workers, func(s *tileScratch, ti int) {
		lo := ti * T
		idx := reps[lo:min(lo+T, len(reps))]
		t0 := time.Now()
		laneNormals(s, pp, mask, opt.History, idx)
		t1 := time.Now()
		s.gj.Invert(s.nrm, s.inv, s.sing, len(idx))
		for p := range idx {
			dst := mc.inv[(lo+p)*K*K : (lo+p+1)*K*K]
			for e := range dst {
				dst[e] = s.inv[e*T+p]
			}
			mc.sing[lo+p] = s.sing[p]
		}
		statCrossNs.Add(int64(t1.Sub(t0)))
		statInvertNs.Add(sinceNs(t1))
	})
	if err != nil {
		return nil, err
	}
	return mc, nil
}

// covers reports whether every fittable lane of the tile belongs to a
// shared class, so the tile can skip its own cross product and inversion.
func (mc *maskClasses) covers(idx []int, fit []bool) bool {
	for p, px := range idx {
		if fit[p] && mc.shared[px] < 0 {
			return false
		}
	}
	return true
}

// fanOut writes each fittable lane's class inverse and singularity flag
// into the tile's lane-interleaved buffers, where GJBatch.Invert would
// have left them.
func (mc *maskClasses) fanOut(s *tileScratch, k int, idx []int) {
	t := s.data.T
	for p, px := range idx {
		if !s.fit[p] {
			continue
		}
		c := int(mc.shared[px])
		src := mc.inv[c*k*k : (c+1)*k*k]
		for e, v := range src {
			s.inv[e*t+p] = v
		}
		s.sing[p] = mc.sing[c]
	}
}
