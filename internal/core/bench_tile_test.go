package core

import (
	"context"
	"fmt"
	"testing"

	"bfast/internal/series"
	"bfast/internal/workload"
)

// The benchmarks below time DetectBatch on one op of each of the
// ledger's two batch workloads: spatially-correlated clouds, where most
// pixels share their history mask with a neighbour, and i.i.d. gaps,
// where none does and the class pass must cost next to nothing
// (BenchmarkGroupIID is that pass alone; compare with
// BenchmarkDetectBatchIID/nan=0.5 at -cpu 1).
//
// BenchmarkDetectBatchIID also sweeps the i.i.d. scene's NaN fraction
// around the ledger's 0.5. A lane's normal matrix costs one table row of
// K(K+1)/2 additions per valid history date, while the lane kernels
// sweep every date some tile-mate is valid on, so the low-NaN end is
// where summing per lane gains least over a tile-wide sweep.

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

func benchDetect(b *testing.B, spec workload.Spec, m int) {
	bb := specBatch(b, spec, m)
	opt := DefaultOptions(spec.History)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectBatch(context.Background(), bb, opt, BatchConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectBatchClouds(b *testing.B) { benchDetect(b, cloudsSpec, 16384) }
func BenchmarkDetectBatchIID(b *testing.B) {
	for _, f := range []float64{0.05, 0.5, 0.8} {
		spec := iidSpec
		spec.NaNFrac = f
		b.Run(fmt.Sprintf("nan=%v", f), func(b *testing.B) { benchDetect(b, spec, 8192) })
	}
}

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
