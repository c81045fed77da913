package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// processStart approximates the child's start: package variables are
// initialised before main runs.
var processStart = time.Now()

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median. The first set-up pays the process's cold start (page
// faults on a fresh heap), which the median keeps out.
const setupRepeats = 3

// metric is one reported value. IQRFrac is the spread of the per-round
// values within the run as a share of their median, so a comparer can
// say "unresolved" where a difference is smaller than the run's own
// noise.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	IQRFrac float64 `json:"iqr_frac,omitempty"`
}

// detail is everything one child run reports; the suite, -compare and
// -selfcheck read it. The one-line result the acceptance driver reads is
// cut from it.
type detail struct {
	Workload       string   `json:"workload"`
	Trace          bool     `json:"trace"`
	Seed           int64    `json:"seed"`
	Seconds        float64  `json:"seconds"`
	Host           hostInfo `json:"host"`
	Clients        int      `json:"clients"`
	Ops            int      `json:"ops"`
	WarmupOps      int      `json:"warmup_ops"`
	Rounds         int      `json:"rounds"`
	TailPercentile float64  `json:"tail_percentile"`
	TailBeyond     int      `json:"tail_samples_beyond"`
	// LatencyMs is the whole latency ladder, for reading; only p50 and
	// the fixed tail are metrics.
	LatencyMs     map[string]float64 `json:"latency_ms,omitempty"`
	WallS         float64            `json:"timed_wall_s"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Verified      int                `json:"verified_ops"`
	ResultsDigest string             `json:"results_digest"`
	Metrics       map[string]metric  `json:"metrics"`
	Notes         []string           `json:"notes,omitempty"`
	FirstError    string             `json:"first_error,omitempty"`
}

func (d *detail) correct() bool { return d.Failed == 0 && d.FirstError == "" }

// runOpts is one child run's command line.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	pxDiv    int // >1 only in the smoke test
	trace    bool
	outDir   string
}

// clientCap is the most closed-loop callers any workload may use: the
// load comes from this one process and must not outnumber the cores.
func clientCap() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// runWorkload runs one workload in this process, end to end or traced.
func runWorkload(ctx context.Context, o runOpts) (*detail, error) {
	d, err := findDef(o.workload)
	if err != nil {
		return nil, err
	}
	env := runEnv{workDir: o.outDir, clients: min(d.Clients, clientCap())}
	det := &detail{
		Workload: d.Name, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		Host: readHost(), Clients: env.clients,
		TailPercentile: d.TailPct, Metrics: make(map[string]metric),
	}
	if o.trace {
		err = runTraced(ctx, d, o, env, det)
	} else {
		err = runEndToEnd(ctx, size(d, o.seconds, o.pxDiv), o.seed, env, det)
	}
	return det, err
}

// setUp builds the instance and warms it: everything between the child's
// start and the first timed op.
func setUp(ctx context.Context, sz sizing, seed int64, env runEnv, tr *tracer, parent spanID) (instance, error) {
	inst, err := newInstance(ctx, sz, seed, env, tr, parent)
	if err != nil {
		return nil, err
	}
	sp := tr.start(parent, "bench.warmup")
	err = inst.warmup(ctx)
	tr.end(sp)
	if err != nil {
		inst.close()
		return nil, err
	}
	runtime.GC()
	return inst, nil
}

// settle closes a run's books after its last round: the failure counts,
// the oracle check of the kept outputs, the digest.
func settle(ctx context.Context, inst instance, all *roundRec, det *detail) error {
	det.Attempted, det.Failed = all.attempted, all.failed
	if all.firstErr != nil {
		det.FirstError = all.firstErr.Error()
	}
	if all.px == 0 || len(all.latMs) == 0 {
		return fmt.Errorf("%s: no op completed: %v", det.Workload, all.firstErr)
	}
	checked, bad, err := inst.verify(ctx)
	if err != nil {
		return fmt.Errorf("%s: verification: %w", det.Workload, err)
	}
	det.Verified = checked
	det.Failed += bad
	if bad > 0 && det.FirstError == "" {
		det.FirstError = fmt.Sprintf("%d of %d checked ops disagree with the scalar oracle", bad, checked)
	}
	det.ResultsDigest = inst.digest().String()
	return nil
}

// roundStat is one round's share of the timed section.
type roundStat struct {
	rec     roundRec
	wall    time.Duration
	cpu     time.Duration
	allocKB float64
}

func runEndToEnd(ctx context.Context, sz sizing, seed int64, env runEnv, det *detail) error {
	det.Ops, det.WarmupOps, det.Rounds = sz.ops(), sz.WarmupOps, sz.Rounds

	var inst instance
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := processStart
		if k > 0 {
			// Tearing the previous set-up down is not set-up.
			if err := inst.close(); err != nil {
				return err
			}
			inst = nil
			runtime.GC()
			t0 = time.Now()
		}
		var err error
		if inst, err = setUp(ctx, sz, seed, env, nil, 0); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { inst.close() }()

	rounds := make([]roundStat, sz.Rounds)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	wall0 := time.Now()
	for r := range rounds {
		rs := &rounds[r]
		cpu0, t0 := cpuTime(), time.Now()
		inst.round(ctx, r, &rs.rec, nil, 0)
		rs.wall, rs.cpu = time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&ms)
		rs.allocKB = float64(ms.TotalAlloc-alloc0) / 1024
		alloc0 = ms.TotalAlloc
	}
	det.WallS = time.Since(wall0).Seconds()

	var all roundRec
	var allocKB float64
	for r := range rounds {
		all.merge(&rounds[r].rec)
		allocKB += rounds[r].allocKB
	}
	if err := settle(ctx, inst, &all, det); err != nil {
		return err
	}

	perRound := func(f func(*roundStat) float64) []float64 {
		v := make([]float64, 0, len(rounds))
		for r := range rounds {
			if rounds[r].rec.px > 0 {
				v = append(v, f(&rounds[r]))
			}
		}
		return v
	}
	lat := sortedCopy(all.latMs)
	_, det.TailBeyond = tailRank(len(lat), sz.TailPct)
	det.LatencyMs = make(map[string]float64)
	for _, pct := range []float64{50, 75, 90, 95, 99} {
		det.LatencyMs[fmt.Sprintf("p%g", pct)] = percentile(lat, pct)
	}
	pxPerS := perRound(func(r *roundStat) float64 { return float64(r.rec.px) / r.wall.Seconds() })
	cpuPerMpx := perRound(func(r *roundStat) float64 { return r.cpu.Seconds() / (float64(r.rec.px) / 1e6) })
	allocPerPx := perRound(func(r *roundStat) float64 { return r.allocKB / float64(r.rec.px) })
	p50s := perRound(func(r *roundStat) float64 { return median(r.rec.latMs) })
	tails := perRound(func(r *roundStat) float64 { return percentile(sortedCopy(r.rec.latMs), sz.TailPct) })

	values := map[string][2]float64{ // value, spread within the run
		"setup_s": {median(setups), iqrFrac(setups)},
		// Median over equal rounds, not total/wall: a neighbour's burst
		// lands in one or two rounds and must not move the run's number.
		"pixels_per_s":    {median(pxPerS), iqrFrac(pxPerS)},
		"latency_p50_ms":  {percentile(lat, 50), iqrFrac(p50s)},
		"latency_tail_ms": {percentile(lat, sz.TailPct), iqrFrac(tails)},
		"cpu_s_per_mpx":   {median(cpuPerMpx), iqrFrac(cpuPerMpx)},
		"alloc_kb_per_px": {allocKB / float64(all.px), iqrFrac(allocPerPx)},
		"peak_rss_mb":     {float64(peakRSSBytes()) / (1 << 20), 0},
	}
	for _, m := range endToEnd {
		v := values[m.Name]
		det.Metrics[m.Name] = metric{Value: v[0], Unit: m.Unit, IQRFrac: v[1]}
	}
	return nil
}

// runTraced is the second, shorter run: set up once under spans, measure
// what the harness's own spans cost the workload, then time the calls
// into each layer's public functions on the pixels of one op.
func runTraced(ctx context.Context, d def, o runOpts, env runEnv, det *detail) error {
	sz := size(d, o.seconds*0.3, o.pxDiv)
	// Rounds alternate untraced and traced; two at least, in pairs. NRT
	// rounds are whole sessions, too few to alternate: cut the same
	// observes into four shorter sessions.
	sz.Rounds = max(2, sz.Rounds&^1)
	if d.Kind == kindNRT && sz.Rounds < 4 {
		sz.PerRound = max(1, sz.ops()/4)
		sz.Rounds = 4
	}
	det.Ops, det.WarmupOps, det.Rounds = sz.ops(), sz.WarmupOps, sz.Rounds

	tr := newTracer()
	root := tr.start(0, "run."+d.Name)
	setup := tr.start(root, "setup")
	inst, err := setUp(ctx, sz, o.seed, env, tr, setup)
	tr.end(setup)
	if err != nil {
		return err
	}
	defer inst.close()
	out := tr.selfByName(setup)
	vals := map[string]float64{
		"workload.generate_ms": float64(out["workload.generate"]) / 1e6,
		"bench.marshal_ms":     float64(out["bench.marshal"]) / 1e6,
		"bench.boot_ms":        float64(out["bench.boot"]) / 1e6,
		"bench.warmup_ms":      float64(out["bench.warmup"]) / 1e6,
	}

	var plain, traced []float64
	var all roundRec
	wall0 := time.Now()
	for r := 0; r < sz.Rounds; r++ {
		var rec roundRec
		var rtr *tracer
		var sp spanID
		if r%2 == 1 {
			rtr, sp = tr, tr.start(root, "round")
		}
		t0 := time.Now()
		inst.round(ctx, r, &rec, rtr, sp)
		wall := time.Since(t0)
		rtr.end(sp)
		if rec.px > 0 {
			rate := float64(rec.px) / wall.Seconds()
			if r%2 == 1 {
				traced = append(traced, rate)
			} else {
				plain = append(plain, rate)
			}
		}
		all.merge(&rec)
	}
	det.WallS = time.Since(wall0).Seconds()
	if err := settle(ctx, inst, &all, det); err != nil {
		return err
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("%s: a traced or an untraced round completed no op", d.Name)
	}
	vals["trace.overhead_pct"] = 100 * (median(plain)/median(traced) - 1)
	_, det.TailBeyond = tailRank(len(all.latMs), sz.TailPct)

	in, err := inst.probe()
	if err != nil {
		return err
	}
	if det.Notes, err = probeLayers(ctx, in, env, o.seconds, tr, root, vals); err != nil {
		return fmt.Errorf("%s: layer probes: %w", d.Name, err)
	}
	tr.end(root)

	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: per-layer metric %s was not measured (%v)", d.Name, m.Name, v)
		}
		det.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return tr.writeFile(traceFile(o.outDir, d.Name))
}

func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// printDetail writes one run's numbers by name and unit.
func printDetail(w io.Writer, det *detail) {
	fmt.Fprintf(w, "%s  seed=%d  ops=%d (warm-up %d, %d rounds)  clients=%d  tail=p%g (%d beyond)  timed wall=%.2fs\n",
		det.Workload, det.Seed, det.Ops, det.WarmupOps, det.Rounds, det.Clients,
		det.TailPercentile, det.TailBeyond, det.WallS)
	if !det.Trace && det.TailBeyond < minBeyond {
		fmt.Fprintf(w, "  note: fewer than %d samples lie beyond the tail percentile; the run is too short for it\n", minBeyond)
	}
	order := endToEnd
	if det.Trace {
		order = perLayer
	}
	for _, def := range order {
		m, ok := det.Metrics[def.Name]
		if !ok {
			continue
		}
		spread := ""
		if m.IQRFrac > 0 {
			spread = fmt.Sprintf("  (rounds IQR/median %.1f%%)", 100*m.IQRFrac)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s%s\n", def.Name, m.Value, m.Unit, spread)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-8s  (%d failed of %d attempted, %d ops checked against the oracle)\n",
		"failed_frac", failedFrac(det), "ratio", det.Failed, det.Attempted, det.Verified)
	fmt.Fprintf(w, "  %-36s %s\n", "results_digest", det.ResultsDigest)
	for _, n := range det.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if det.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", det.FirstError)
	}
}
