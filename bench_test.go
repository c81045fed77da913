// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// prints the paper-style rows once (with the paper's reported values in
// the header lines) and then times the experiment; cmd/bfast-bench runs
// the same harness at full sample sizes.
//
//	go test -bench=. -benchmem
package bfast

import (
	"context"

	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"bfast/internal/benchutil"
	"bfast/internal/core"
	"bfast/internal/workload"
)

// benchSampleM keeps per-iteration cost moderate; bump with
// cmd/bfast-bench -sample for higher-fidelity runs.
const benchSampleM = 1024

var printOnce sync.Map

// runExperiment prints the experiment's report the first time a benchmark
// runs, then re-runs it silently b.N times for timing.
func runExperiment(b *testing.B, name string, cfg benchutil.Config) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(name, true); !done {
		cfg.Out = os.Stdout
		fmt.Println()
		if err := benchutil.Run(context.Background(), name, cfg); err != nil {
			b.Fatal(err)
		}
	}
	cfg.Out = io.Discard
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchutil.Run(context.Background(), name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCfg() benchutil.Config {
	return benchutil.Config{SampleM: benchSampleM}
}

// BenchmarkTable1Datasets regenerates Table I: the eight dataset specs
// and the realized missing-value frequency of the generator.
func BenchmarkTable1Datasets(b *testing.B) {
	runExperiment(b, "table1", benchCfg())
}

// BenchmarkFig6MaskedMatMul regenerates Figure 6: batch-masked matrix
// multiplication, register-tiled vs block-tiled vs naive, GFlops^Sp on
// every Table I dataset.
func BenchmarkFig6MaskedMatMul(b *testing.B) {
	runExperiment(b, "fig6", benchCfg())
}

// BenchmarkFig7MatInv regenerates Figure 7: batched Gauss-Jordan
// inversion, shared-memory vs global-memory, GFlops^Sp.
func BenchmarkFig7MatInv(b *testing.B) {
	runExperiment(b, "fig7", benchCfg())
}

// BenchmarkFig8Application regenerates Figure 8: whole-application
// GFlops^Sp for Ours / RgTl-EfSeq / Full-EfSeq (modeled) and the parallel
// CPU baseline (measured on this host).
func BenchmarkFig8Application(b *testing.B) {
	cfg := benchCfg()
	// The measured CPU column re-runs per iteration; keep datasets trim.
	cfg.Datasets = []string{"D1", "D2", "D4", "D6", "Peru (Small)", "Africa (Small)"}
	runExperiment(b, "fig8", cfg)
}

// BenchmarkFig10Pipeline regenerates Figure 10: the per-phase pipeline
// breakdown for the Peru (Small/Large) and Africa per-image scenarios,
// with the paper's 50-chunk split for the large ones.
func BenchmarkFig10Pipeline(b *testing.B) {
	cfg := benchCfg()
	cfg.SampleM = 256 // scenarios scale with SampleM*16
	runExperiment(b, "fig10", cfg)
}

// BenchmarkMapsPeru regenerates the qualitative map experiment of
// Figs. 3/9: detection over the Peru-like scene scored against injected
// ground truth (maps are written by cmd/bfast-bench -maps-dir).
func BenchmarkMapsPeru(b *testing.B) {
	cfg := benchCfg()
	cfg.SampleM = 256
	runExperiment(b, "maps", cfg)
}

// BenchmarkSpeedups regenerates the §IV-C / §V-B headline ratios: modeled
// GPU vs measured parallel CPU vs measured single-thread vs the R-style
// implementation.
func BenchmarkSpeedups(b *testing.B) {
	runExperiment(b, "speedups", benchCfg())
}

// BenchmarkSweepMonitoringPeriods regenerates §V-C: consecutive one-year
// monitoring periods over the Peru-like scene.
func BenchmarkSweepMonitoringPeriods(b *testing.B) {
	cfg := benchCfg()
	cfg.SampleM = 256
	runExperiment(b, "sweep", cfg)
}

// BenchmarkDetectBatchCPU times the production CPU path itself (pixels
// per second on this host) on D2 geometry, reported as ns/pixel.
func BenchmarkDetectBatchCPU(b *testing.B) {
	spec, err := PresetScene("D2")
	if err != nil {
		b.Fatal(err)
	}
	spec.M = 2048
	spec.Width = 0
	scene, err := GenerateScene(spec)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := SceneBatch(scene)
	if err != nil {
		b.Fatal(err)
	}
	det, err := NewDetector(spec.N, DefaultOptions(spec.History))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectBatch(context.Background(), batch, BatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.M), "ns/pixel")
}

// skewedNaNBatch builds the PR-1 benchmark workload: a 50%-NaN scene with
// spatially-correlated cloud masks, the regime where per-pixel cost is
// maximally uneven across the batch.
func skewedNaNBatch(b *testing.B) (*core.Batch, core.Options) {
	b.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "skew50", M: 2048, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch, err := core.NewBatch(2048, 412, ds.Y)
	if err != nil {
		b.Fatal(err)
	}
	return batch, core.DefaultOptions(206)
}

// BenchmarkSeedBatchSkewedNaN times the retained seed batched path
// (per-element NaN tests, static contiguous chunks) on the skewed scene —
// the "before" side of the PR-1 masks experiment.
func BenchmarkSeedBatchSkewedNaN(b *testing.B) {
	batch, opt := skewedNaNBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectBatchReference(batch, opt, core.BatchConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.M), "ns/pixel")
}

// BenchmarkMaskedBatchSkewedNaN times the bitset-mask + work-stealing
// batched path on the same skewed scene — the "after" side. Compare with
// BenchmarkSeedBatchSkewedNaN; BENCH_PR1.json records the tracked ratio.
func BenchmarkMaskedBatchSkewedNaN(b *testing.B) {
	batch, opt := skewedNaNBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectBatch(context.Background(), batch, opt, core.BatchConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.M), "ns/pixel")
}

// BenchmarkAblations runs the design-choice sweeps of DESIGN.md: the
// register-tile size R, the model order k, the missing-value frequency,
// and the sampled-simulation accuracy check.
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ablations", benchCfg())
}

// BenchmarkClaimsScorecard checks every qualitative claim of the paper's
// evaluation programmatically and prints the PASS/FAIL scorecard.
func BenchmarkClaimsScorecard(b *testing.B) {
	runExperiment(b, "claims", benchCfg())
}

// BenchmarkCoalesceServing measures micro-batched serving against the
// per-request path under concurrent 1–4-pixel /v1/batch load, asserting
// the responses stay byte-identical (see BENCH_PR7.json).
func BenchmarkCoalesceServing(b *testing.B) {
	runExperiment(b, "coalesce", benchCfg())
}
