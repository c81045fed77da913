package analysis

// All returns the bfast-lint suite in reporting order. Each analyzer
// machine-checks one invariant the paper's correctness story depends
// on; DESIGN.md §8 is the analyzer → invariant table.
func All() []*Analyzer {
	return []*Analyzer{
		NanGuard,
		KernelAlloc,
		CtxFirst,
		SpanPair,
		LockPair,
		GoLifecycle,
		AtomicGuard,
		NewMetricDoc(),
	}
}
