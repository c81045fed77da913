package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a workload's
// fixed tail percentile for the tail to be reported as supported. Twenty
// rather than the usual ten because the tail is gated at 10%: with ten
// samples beyond, one descheduled op moves the estimate by a rank.
const minBeyond = 20

// tailRank returns the nearest-rank index of percentile pct in an
// ascending sample of n values, and how many samples lie strictly beyond
// it. The percentile is fixed per workload (workloads.go) and never
// derived from n: a run that got faster or slower must not silently
// measure a different quantile.
func tailRank(n int, pct float64) (idx, beyond int) {
	if n <= 0 {
		return 0, 0
	}
	idx = int(math.Ceil(pct/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx, n - 1 - idx
}

// percentile returns the nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx, _ := tailRank(len(sorted), pct)
	return sorted[idx]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method) — the
// acceptance driver computes its spreads with that function, so the
// harness's own spread must be the same number.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j, delta := i*m/4, i*m%4
		if j < 1 {
			j, delta = 1, 0
		} else if j > ld-1 {
			j, delta = ld-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrFrac is the interquartile range of v as a share of its median: the
// spread a comparer sets against a metric's bound to decide between
// "within bound" and "unresolved".
func iqrFrac(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}
