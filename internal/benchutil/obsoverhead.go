package benchutil

import (
	"context"
	"fmt"
	"time"

	"os"

	"bfast/internal/core"
	"bfast/internal/obs"
	"bfast/internal/workload"
)

// ObsOverheadRow is one strategy's instrumentation-overhead measurement:
// the same DetectBatch workload with span tracing off (a plain context,
// every StartSpan a nil-receiver no-op) and on (a root span in the
// context, the full kernel-phase tree built and recorded into a
// TraceRing). OverheadPct is the guard the serving layer relies on —
// tracing must cost well under 5% so it can stay on in production.
type ObsOverheadRow struct {
	// Strategy names the batched strategy measured.
	Strategy string
	// M, N, History, NaNFrac describe the workload.
	M, N, History int
	NaNFrac       float64
	// Plain and Instrumented are best-of-reps wall times without and
	// with an active root span.
	Plain, Instrumented time.Duration
	// Diagnostics is the instrumented run plus the full always-on
	// diagnostics layer of PR 9: an exemplar observation on a latency
	// histogram and a tail-sampler offer (score + JSONL persistence for
	// survivors) per batch.
	Diagnostics time.Duration
	// OverheadPct is 100*(Instrumented-Plain)/Plain (negative = noise).
	OverheadPct float64
	// DiagOverheadPct is 100*(Diagnostics-Plain)/Plain — the guard that
	// lets tail sampling and exemplars stay on in production (<5%).
	DiagOverheadPct float64
	// Identical reports whether all runs returned bit-identical results.
	Identical bool
}

// obsReps is the number of timed repetitions per path (best is kept).
const obsReps = 5

// ObsOverhead measures the cost of the observability layer on the
// batched hot path: the no-op span path (nil Span methods) against full
// tracing (root span + kernel-phase children + ring record), on the
// 50%-NaN cloud-masked scene where the scheduler and kernel phases emit
// the most spans and skew samples.
func ObsOverhead(ctx context.Context, cfg Config) ([]ObsOverheadRow, error) {
	cfg = cfg.withDefaults()
	spec := workload.Spec{
		Name: "skew50", M: cfg.SampleM, N: 412, History: 206,
		NaNFrac: 0.5, Mask: workload.MaskClouds, BreakFrac: 0.3, Seed: 7,
	}
	spec, _ = sampledSpec(spec, cfg)
	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatch(spec.M, spec.N, ds.Y)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions(spec.History)
	ring := obs.NewTraceRing(16)

	// The diagnostics path exercises the PR 9 layer end to end: a real
	// tail sampler writing to a throwaway directory (so survivors pay
	// the marshal+append cost) and a latency histogram with exemplars.
	diagDir, err := os.MkdirTemp("", "bfast-obsbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(diagDir)
	reg := obs.NewRegistry()
	tail, err := obs.NewTailSampler(obs.TailConfig{
		Dir: diagDir, SlowThreshold: time.Nanosecond, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	defer tail.Close()
	//lint:allow metricdoc -- bench-local registry, never mounted on /metrics, so the family is deliberately outside the pinned golden surface
	latency := reg.Histogram("bench.latency_ms", nil)

	fmt.Fprintf(cfg.Out, "OBS OVERHEAD — DetectBatch with tracing off / on / on+diagnostics (50%% NaN clouds, M=%d N=%d, guard: <5%%)\n", spec.M, spec.N)
	fmt.Fprintf(cfg.Out, "%-12s %10s %12s %12s %9s %9s %10s\n", "strategy", "plain", "instrumented", "diagnostics", "overhead", "diag ovh", "identical")

	var rows []ObsOverheadRow
	for _, st := range tiledStrategies {
		bcfg := core.BatchConfig{Strategy: st, Workers: cfg.Workers}
		plainRes, plainT, err := bestOf(obsReps, func() ([]core.Result, error) {
			return core.DetectBatch(ctx, b, opt, bcfg)
		})
		if err != nil {
			return nil, err
		}
		instRes, instT, err := bestOf(obsReps, func() ([]core.Result, error) {
			root := obs.NewSpan("bench.detect_batch")
			ctx := obs.ContextWithSpan(ctx, root)
			res, err := core.DetectBatch(ctx, b, opt, bcfg)
			root.End()
			ring.Record(obs.Trace{Endpoint: "bench", Spans: func() *obs.SpanNode { n := root.Node(); return &n }()})
			return res, err
		})
		if err != nil {
			return nil, err
		}
		diagRes, diagT, err := bestOf(obsReps, func() ([]core.Result, error) {
			start := time.Now()
			root := obs.NewSpan("bench.detect_batch")
			ctx := obs.ContextWithSpan(ctx, root)
			res, err := core.DetectBatch(ctx, b, opt, bcfg)
			root.End()
			node := root.Node()
			tr := obs.Trace{Endpoint: "bench", RequestID: "bench-diag", Code: 200,
				Start: start, Total: time.Since(start), Spans: &node}
			ring.Record(tr)
			// The serving layer's per-request diagnostics: exemplar on the
			// latency bucket, completed trace offered to the tail sampler
			// (SlowThreshold=1ns above, so every offer also persists — the
			// worst case, every batch paying the JSONL append).
			latency.ObserveExemplar(float64(tr.Total)/1e6, tr.RequestID)
			tail.Offer(tr)
			return res, err
		})
		if err != nil {
			return nil, err
		}
		row := ObsOverheadRow{
			Strategy: st.String(),
			M:        spec.M, N: spec.N, History: spec.History, NaNFrac: spec.NaNFrac,
			Plain: plainT, Instrumented: instT, Diagnostics: diagT,
			OverheadPct:     100 * (instT.Seconds() - plainT.Seconds()) / plainT.Seconds(),
			DiagOverheadPct: 100 * (diagT.Seconds() - plainT.Seconds()) / plainT.Seconds(),
			Identical:       resultsIdentical(plainRes, instRes) && resultsIdentical(plainRes, diagRes),
		}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%-12s %10s %12s %12s %8.2f%% %8.2f%% %10v\n",
			row.Strategy, shortDur(row.Plain), shortDur(row.Instrumented), shortDur(row.Diagnostics),
			row.OverheadPct, row.DiagOverheadPct, row.Identical)
	}
	return rows, nil
}
