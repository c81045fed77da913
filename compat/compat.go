// Package compat preserves the retired pre-context entry points of the
// bfast root package as free-function shims.
//
// PR 3 consolidated batch detection behind the ctx-first
// Detector.DetectBatch(ctx, b, BatchOptions{...}) and kept the old
// signatures as Deprecated methods; this package is where those
// methods went when they were removed from the root API. The shims are
// byte-for-byte equivalent to the removed methods: they delegate to
// Detector.DetectBatch with context.Background(), so they offer no
// cancellation and no span tracing — which is exactly why internal
// code must not call them (enforced by the nodeprecated analyzer).
//
// Migration (also in the README "API migration" table):
//
//	compat.DetectBatchStrategy(d, b, s, w) → d.DetectBatch(ctx, b, bfast.BatchOptions{Strategy: s, Workers: w})
//	compat.DetectBatchFused(d, b, w)       → d.DetectBatch(ctx, b, bfast.BatchOptions{Workers: w})
//
// The package will be removed outright in a future major version; new
// code should import only the root package.
package compat

import (
	"context"
	"fmt"

	"bfast"
)

// DetectBatchStrategy runs the batch under an explicit execution
// strategy — the retired Detector.DetectBatchStrategy method.
//
// Deprecated: use Detector.DetectBatch(ctx, b,
// bfast.BatchOptions{Strategy: strat, Workers: workers}).
func DetectBatchStrategy(d *bfast.Detector, b *bfast.Batch, strat bfast.Strategy, workers int) ([]bfast.Result, error) {
	return d.DetectBatch(context.Background(), b, bfast.BatchOptions{Strategy: strat, Workers: workers})
}

// DetectBatchFused is the retired Detector.DetectBatchFused method (the
// behavior of the pre-PR-3 two-argument DetectBatch(b, workers)). It ran
// the C-like per-pixel baseline, whose results are bit-identical to
// Detector.DetectBatch's, which it now calls.
//
// Deprecated: use Detector.DetectBatch(ctx, b,
// bfast.BatchOptions{Workers: workers}).
func DetectBatchFused(d *bfast.Detector, b *bfast.Batch, workers int) ([]bfast.Result, error) {
	if b.N != d.SeriesLen() {
		return nil, fmt.Errorf("compat: batch has %d dates, detector built for %d", b.N, d.SeriesLen())
	}
	return d.DetectBatch(context.Background(), b, bfast.BatchOptions{Workers: workers})
}
