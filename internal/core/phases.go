package core

import (
	"time"

	"bfast/internal/obs"
)

// Kernel-phase metrics (DESIGN.md §6): cumulative nanoseconds spent in
// each kernel group of the batched detection paths, summed across
// workers (CPU time, not wall time), plus the number of pixels
// processed. The tiled and masked paths attribute time to the paper's
// kernel groups — cross product (ker 1–2, with the tile gather),
// inversion + β (ker 3–5), residuals (ker 6–7), MOSUM monitoring
// (ker 8–10) — once per steal unit, while the fully fused strategy and
// the C-like baseline account their single pass under kernel.fused.ns.
var (
	statKernelPixels = obs.Default().Counter("kernel.pixels")
	statCrossNs      = obs.Default().Counter("kernel.cross_product.ns")
	statInvertNs     = obs.Default().Counter("kernel.invert.ns")
	statResidualNs   = obs.Default().Counter("kernel.residual.ns")
	statMosumNs      = obs.Default().Counter("kernel.mosum.ns")
	statFusedNs      = obs.Default().Counter("kernel.fused.ns")
)

// sinceNs returns the elapsed nanoseconds since t0 — a tiny wrapper so
// the instrumentation reads as one line at each phase boundary.
func sinceNs(t0 time.Time) int64 { return int64(time.Since(t0)) }
