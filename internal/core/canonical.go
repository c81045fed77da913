package core

import (
	"fmt"
	"strconv"
)

// Canonical returns opt with equivalent-but-distinct encodings collapsed
// onto one representative, so callers that store or key on an option
// set (an NRT session keeps its canonical options) treat alike requests
// that would compute identical results:
//
//   - Lambda is resolved: an explicit Lambda and the (Level, HFrac,
//     Boundary) triple that looks up the same critical value become the
//     same struct (Level is zeroed once Lambda is pinned — ResolveLambda
//     never consults it again).
//   - MinValidHistory is raised to the effective minimum max(m, K), the
//     value every kernel actually compares against.
//
// Detection behavior is invariant: for any valid opt,
// DetectBatch(opt) and DetectBatch(opt.Canonical()) are bit-identical
// (pinned by TestCanonicalOptionsBitIdentical). Fields that change
// results (History, Harmonics, Frequency, HFrac, Boundary, Process,
// Sigma, Solver, NoTrend) pass through untouched. Returns an error when
// the options cannot resolve a boundary scale (the same failure
// Validate reports).
func (o Options) Canonical() (Options, error) {
	lambda, err := o.ResolveLambda()
	if err != nil {
		return o, err
	}
	o.Lambda = lambda
	o.Level = 0
	o.MinValidHistory = o.minHist()
	return o, nil
}

// QueueKey returns a stable string identifying the canonical option set
// for a series length n: two (Options, n) pairs with equal keys produce
// bit-identical per-pixel results, so their requests may share one
// merged DetectBatch. The key is exact (strconv float formatting, no
// rounding); distinct option sets never collide. Its one caller is
// internal/coalesce, and it goes when that package does.
func (o Options) QueueKey(n int) (string, error) {
	c, err := o.Canonical()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("n=%d h=%d k=%d f=%s hf=%s l=%s b=%d p=%d s=%d sol=%d mh=%d nt=%t",
		n, c.History, c.Harmonics,
		strconv.FormatFloat(c.Frequency, 'g', -1, 64),
		strconv.FormatFloat(c.HFrac, 'g', -1, 64),
		strconv.FormatFloat(c.Lambda, 'g', -1, 64),
		int(c.Boundary), int(c.Process), int(c.Sigma), int(c.Solver),
		c.MinValidHistory, c.NoTrend), nil
}
