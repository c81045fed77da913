package core

import (
	"context"
	"testing"

	"bfast/internal/series"
	"bfast/internal/workload"
)

// The benchmarks below time the tiled path (DetectBatch) against the
// retained PR-1 masked per-pixel path (DetectBatchMasked) on the `tiles`
// experiment's scene, and on one op of each of the ledger's two batch
// workloads: spatially-correlated clouds, where most pixels share their
// history mask with a neighbour, and i.i.d. gaps, where none does and
// the class pass must cost next to nothing (BenchmarkGroupIID is that
// pass alone; compare with BenchmarkDetectBatchIID at -cpu 1).

func specBatch(b *testing.B, spec workload.Spec, m int) *Batch {
	ds, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := NewBatch(m, spec.N, ds.Y[:m*spec.N])
	if err != nil {
		b.Fatal(err)
	}
	return bb
}

var (
	tilesSpec = workload.Spec{
		Name: "skew50", M: 4096, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 7, Width: 64,
	}
	// One op of the ledger's batch-clouds and batch-iid workloads
	// (bench/workloads.go): the first chunk of the generated scene.
	cloudsSpec = workload.Spec{
		Name: "clouds", M: 98304, Width: 384, N: 235, History: 113,
		NaNFrac: 0.69, Mask: workload.MaskClouds, BreakFrac: 0.08, Seed: 1,
	}
	iidSpec = workload.Spec{
		Name: "iid", M: 32768, N: 512, History: 256,
		NaNFrac: 0.5, Mask: workload.MaskIID, Seed: 1,
	}
)

func benchDetect(b *testing.B, run func(context.Context, *Batch, Options, BatchConfig) ([]Result, error), spec workload.Spec, m int, st Strategy) {
	bb := specBatch(b, spec, m)
	opt := DefaultOptions(spec.History)
	cfg := BatchConfig{Strategy: st}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(context.Background(), bb, opt, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloudTiled(b *testing.B) { benchDetect(b, DetectBatch, tilesSpec, 4096, StrategyOurs) }
func BenchmarkCloudMaskedStaged(b *testing.B) {
	benchDetect(b, DetectBatchMasked, tilesSpec, 4096, StrategyOurs)
}
func BenchmarkCloudMaskedFused(b *testing.B) {
	benchDetect(b, DetectBatchMasked, tilesSpec, 4096, StrategyRgTlEfSeq)
}
func BenchmarkDetectBatchClouds(b *testing.B) {
	benchDetect(b, DetectBatch, cloudsSpec, 16384, StrategyOurs)
}
func BenchmarkDetectBatchIID(b *testing.B) { benchDetect(b, DetectBatch, iidSpec, 8192, StrategyOurs) }

var sinkGroups maskGroups

func BenchmarkGroupIID(b *testing.B) {
	bb := specBatch(b, iidSpec, 8192)
	opt := DefaultOptions(iidSpec.History)
	mask := series.NewBatchMask(bb.M, bb.N, bb.Y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGroups = groupByHistoryMask(mask, opt.History, opt.minHist(), hashWords)
	}
}
