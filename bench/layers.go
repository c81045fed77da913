package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bfast"
	"bfast/internal/baseline"
	"bfast/internal/coalesce"
	"bfast/internal/core"
	"bfast/internal/cube"
	"bfast/internal/flops"
	"bfast/internal/linalg"
	"bfast/internal/nrt"
	"bfast/internal/obs"
	"bfast/internal/pipeline"
	"bfast/internal/sched"
	"bfast/internal/series"
	"bfast/internal/server"
	"bfast/internal/state"
	"bfast/internal/tile"
)

// probeInput is the pixels of one op of a workload: what every layer
// probe of that workload's traced run is measured on.
type probeInput struct {
	opt   core.Options
	batch *core.Batch // detection axis (cube-swath: empty dates dropped)
	raw   *cube.Cube  // the cube before empty-slice removal, when the workload has one
	width int         // raster width of the batch's pixels, 0 = unknown
}

// prober times calls into the layers' public functions from outside.
// Every timed call is a span under root; a metric is the median of its
// spans' self times.
type prober struct {
	ctx     context.Context
	in      *probeInput
	env     runEnv
	seconds float64 // the run's -seconds; repeat counts scale with it
	tr      *tracer
	root    spanID
	vals    map[string]float64
	notes   []string // printed under the metrics
}

// probeLayers fills vals with every per-layer metric except the set-up
// and overhead rows, which runTraced measures itself.
func probeLayers(ctx context.Context, in *probeInput, env runEnv, seconds float64, tr *tracer, root spanID, vals map[string]float64) (notes []string, err error) {
	p := &prober{ctx: ctx, in: in, env: env, seconds: seconds, tr: tr, root: root, vals: vals}
	for _, group := range []func() error{p.host, p.kernels, p.scheduling, p.cubePath, p.serving, p.nrtPath} {
		if err := group(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p.notes, nil
}

// reps scales a repeat count chosen for the default run length, never
// below two.
func (p *prober) reps(atDefault int) int {
	return max(2, int(math.Round(float64(atDefault)*p.seconds/defaultSeconds)))
}

// timed runs fn reps times under spans called name and returns the
// median duration in nanoseconds.
func (p *prober) timed(name string, reps int, fn func() error) (float64, error) {
	ns := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sp := p.tr.start(p.root, name)
		err := fn()
		p.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ns = append(ns, float64(p.tr.dur(sp)))
	}
	return median(ns), nil
}

// --- host ceilings ----------------------------------------------------------

var sink float64

// peakGflops is what scalar Go code reaches on one core: eight
// independent multiply-add chains, no loads. The toolchain emits no SIMD,
// so this, not the CPU's vector peak, is the ceiling the kernels can be
// held to.
func peakGflops(iters int) float64 {
	best := 0.0
	for try := 0; try < 3; try++ {
		a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		m, c := 0.9999999, 1e-9
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			a0 = a0*m + c
			a1 = a1*m + c
			a2 = a2*m + c
			a3 = a3*m + c
			a4 = a4*m + c
			a5 = a5*m + c
			a6 = a6*m + c
			a7 = a7*m + c
		}
		ns := float64(time.Since(t0))
		sink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		if g := float64(iters) * 16 / ns; g > best {
			best = g
		}
	}
	return best
}

// streamGBs is the triad a = b + s*c over three arrays of n floats, best
// of three sweeps, counting 24 bytes per element.
func streamGBs(n int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 1
	}
	best := 0.0
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if g := float64(n) * 24 / float64(time.Since(t0)); g > best {
			best = g
		}
	}
	sink += a[n/2]
	return best
}

// streamArrayBytes sizes each triad array at four times the last-level
// cache, capped at 256 MiB: the sysfs figure in a VM is the whole host
// socket's L3 and three arrays of four times that would not fit.
func streamArrayBytes(llc int64) int64 {
	const fallback, limit = 64 << 20, 256 << 20
	if llc <= 0 {
		return fallback
	}
	return min(4*llc, limit)
}

func (p *prober) host() error {
	iters, arrayBytes := 1<<25, streamArrayBytes(llcBytes())
	if p.seconds < 1 { // the smoke test
		iters, arrayBytes = 1<<18, 1<<20
	}
	sp := p.tr.start(p.root, "host.peak")
	p.vals["host.peak_gflops"] = peakGflops(iters)
	p.tr.end(sp)
	sp = p.tr.start(p.root, "host.stream")
	p.vals["host.stream_gbs"] = streamGBs(int(arrayBytes / 8))
	p.tr.end(sp)
	p.notes = append(p.notes, fmt.Sprintf("host.stream_gbs: triad over 3 arrays of %d MiB each; last-level cache %d MiB as sysfs reports it",
		arrayBytes>>20, llcBytes()>>20))
	return nil
}

// --- kernel decomposition ---------------------------------------------------

// kernelParts are the replay's spans, in call order. Their per-pixel
// times sum to the replay; what core.DetectBatch on one worker spends
// beyond that sum is core.unattributed_pct.
var kernelParts = []struct{ span, metric string }{
	{"series.mask", "series.mask_ns_per_px"},
	{"tile.plan", "tile.plan_ns_per_px"},
	{"tile.gather", "tile.gather_ns_per_px"},
	{"tile.cross_product", "tile.cross_product_ns_per_px"},
	{"tile.matvec", "tile.matvec_ns_per_px"},
	{"linalg.invert", "linalg.invert_ns_per_px"},
	{"linalg.beta", "linalg.beta_ns_per_px"},
	{"tile.residuals", "tile.residuals_ns_per_px"},
	{"core.monitor", "core.monitor_ns_per_px"},
}

// historyMatrix copies the design's first n dates into the K×n matrix
// the history kernels take.
func historyMatrix(x *series.DesignMatrix, n int) *linalg.Matrix {
	xh := linalg.NewMatrix(x.K, n)
	for j := 0; j < x.K; j++ {
		copy(xh.Data[j*n:(j+1)*n], x.Data[j*x.N:j*x.N+n])
	}
	return xh
}

// replayKernels runs the fused tile loop of the production path with the
// layers' public kernels only, on the calling goroutine, a span around
// each call. It returns the per-pixel results so the caller can hold the
// replay to core.DetectBatch.
func replayKernels(b *core.Batch, opt core.Options, x *series.DesignMatrix, tr *tracer, root spanID) ([]pixelOut, *tile.Plan, *series.BatchMask, error) {
	M, N, n, K, T := b.M, b.N, opt.History, opt.K(), tile.DefaultWidth
	lambda, err := opt.ResolveLambda()
	if err != nil {
		return nil, nil, nil, err
	}
	minHist := max(opt.MinValidHistory, K)
	xh := historyMatrix(x, n)
	out := make([]pixelOut, M)

	sp := tr.start(root, "series.mask")
	mask := series.NewBatchMask(M, N, b.Y)
	tr.end(sp)
	sp = tr.start(root, "tile.plan")
	plan := tile.NewPlan(mask, T)
	tr.end(sp)

	data, sc, gj := tile.NewData(T, N), tile.NewSchedule(N), linalg.NewGJBatch(K, T)
	nrm, inv := make([]float64, K*K*T), make([]float64, K*K*T)
	rhs, beta := make([]float64, K*T), make([]float64, K*T)
	sing, fit := make([]bool, T), make([]bool, T)
	rbuf, ix, nVal := make([]float64, T*N), make([]int32, T*N), make([]int, T)
	nBar := make([]int, T)

	for ti := 0; ti < plan.Tiles; ti++ {
		idx := plan.Indices(ti)
		anyFit := false
		for l, px := range idx {
			nBar[l] = series.CountBits(mask.Row(px), n)
			fit[l] = nBar[l] >= minHist
			anyFit = anyFit || fit[l]
			out[px] = pixelOut{status: core.StatusInsufficientHistory, brk: -1}
		}
		if !anyFit {
			continue
		}
		sp = tr.start(root, "tile.gather")
		data.Gather(b.Y, mask, idx)
		sc.Build(data)
		tr.end(sp)
		sp = tr.start(root, "tile.cross_product")
		tile.CrossProduct(xh, data, sc, nrm)
		tr.end(sp)
		sp = tr.start(root, "tile.matvec")
		tile.MatVecHistory(xh, data, sc, rhs)
		tr.end(sp)
		sp = tr.start(root, "linalg.invert")
		gj.Invert(nrm, inv, sing, data.P)
		tr.end(sp)
		sp = tr.start(root, "linalg.beta")
		linalg.MatVecBatch(K, T, data.P, inv, rhs, beta)
		tr.end(sp)
		sp = tr.start(root, "tile.residuals")
		tile.Residuals(x, data, sc, beta, rbuf, ix, nVal)
		tr.end(sp)
		sp = tr.start(root, "core.monitor")
		for l, px := range idx {
			switch {
			case !fit[l]:
			case sing[l]:
				out[px].status = core.StatusSingular
			default:
				w := nVal[l]
				mo := core.MonitorSeries(rbuf[l*N:l*N+w], nBar[l], w-nBar[l], opt, lambda)
				o := pixelOut{status: mo.Status, brk: -1,
					mean: math.Float64bits(mo.Mean), sigma: math.Float64bits(mo.Sigma)}
				if mo.Break >= 0 {
					if orig := int(ix[l*N+nBar[l]+mo.Break]); orig >= n {
						o.brk = orig - n
					}
				}
				out[px] = o
			}
		}
		tr.end(sp)
	}
	return out, plan, mask, nil
}

func (p *prober) kernels() error {
	b, opt := p.in.batch, p.in.opt
	M, N, n, K := b.M, b.N, opt.History, opt.K()
	x, err := core.DesignFor(opt, N)
	if err != nil {
		return err
	}

	// The plain single-thread baseline, and the results everything below
	// is held to.
	var want []core.Result
	w1, err := p.timed("core.DetectBatch.w1", p.reps(5), func() error {
		want, err = core.DetectBatch(p.ctx, b, opt, core.BatchConfig{Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	p.vals["core.detect_batch_w1_ns_per_px"] = w1 / float64(M)

	reps := p.reps(3)
	perRep := make(map[string][]float64)
	var plan *tile.Plan
	var mask *series.BatchMask
	for r := 0; r < reps; r++ {
		root := p.tr.start(p.root, "kernel.replay")
		var got []pixelOut
		got, plan, mask, err = replayKernels(b, opt, x, p.tr, root)
		p.tr.end(root)
		if err != nil {
			return err
		}
		for i, g := range got {
			if !sameResult(g, want[i]) {
				return fmt.Errorf("kernel replay disagrees with core.DetectBatch at pixel %d: the decomposition does not describe the production path", i)
			}
		}
		self := p.tr.selfByName(root)
		for _, part := range kernelParts {
			perRep[part.span] = append(perRep[part.span], float64(self[part.span]))
		}
	}
	var sum float64
	partNs := make(map[string]float64)
	for _, part := range kernelParts {
		partNs[part.span] = median(perRep[part.span])
		p.vals[part.metric] = partNs[part.span] / float64(M)
		sum += partNs[part.span]
	}
	p.vals["core.unattributed_pct"] = 100 * (w1 - sum) / w1

	sample := 0
	scalar, err := p.timed("core.Detect.sample", p.reps(3), func() error {
		sample = 0
		for i := 0; i < M; i += oracleStep {
			if _, err := core.Detect(b.Row(i), x, opt); err != nil {
				return err
			}
			sample++
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.vals["core.detect_scalar_ns_per_px"] = scalar / float64(sample)

	// Counts.
	p.vals["tile.tiles"] = float64(plan.Tiles)
	var waste float64
	var valid int
	classes := make(map[string]struct{})
	key := make([]byte, 0, 8*series.MaskWords(n))
	for ti := 0; ti < plan.Tiles; ti++ {
		idx := plan.Indices(ti)
		sumC, maxC := 0, 0
		for _, px := range idx {
			c := series.CountBits(mask.Row(px), N)
			sumC += c
			maxC = max(maxC, c)
		}
		valid += sumC
		if maxC > 0 {
			waste += 100 * (1 - float64(sumC)/float64(len(idx)*maxC))
		}
	}
	for i := 0; i < M; i++ {
		key = key[:0]
		words := mask.Row(i)
		for w := 0; w < series.MaskWords(n); w++ {
			v := words[w]
			if rem := n - 64*w; rem < 64 {
				v &= 1<<uint(rem) - 1
			}
			key = binary.LittleEndian.AppendUint64(key, v)
		}
		classes[string(key)] = struct{}{}
	}
	p.vals["tile.pad_waste_pct"] = waste / float64(plan.Tiles)
	p.vals["series.valid_frac"] = float64(valid) / float64(M*N)
	p.vals["tile.mask_classes_per_kpx"] = 1000 * float64(len(classes)) / float64(M)
	breaks, singular := 0, 0
	for _, r := range want {
		if r.HasBreak() {
			breaks++
		}
		if r.Status == core.StatusSingular {
			singular++
		}
	}
	p.vals["core.break_frac"] = float64(breaks) / float64(M)
	p.vals["core.singular_frac"] = float64(singular) / float64(M)

	// Rates: the paper's §IV-A operation counts over measured time.
	fl := flops.Sizes{M: M, N: N, History: n, K: K, HFrac: opt.HFrac}
	peak := p.vals["host.peak_gflops"]
	p.vals["flops.app_gflops"] = fl.App() / w1
	p.vals["flops.cross_product_gflops"] = fl.MaskedMatMul() / partNs["tile.cross_product"]
	p.vals["flops.invert_gflops"] = fl.MatInv() / partNs["linalg.invert"]
	p.vals["tile.cross_product_pct_of_peak"] = 100 * p.vals["flops.cross_product_gflops"] / peak
	p.vals["linalg.invert_pct_of_peak"] = 100 * p.vals["flops.invert_gflops"] / peak
	return nil
}

// --- scheduling and fixed costs ---------------------------------------------

func (p *prober) scheduling() error {
	b, opt := p.in.batch, p.in.opt
	nproc := runtime.NumCPU()
	wN, err := p.timed("core.DetectBatch.wN", p.reps(5), func() error {
		_, err := core.DetectBatch(p.ctx, b, opt, core.BatchConfig{Workers: nproc})
		return err
	})
	if err != nil {
		return err
	}
	w1 := p.vals["core.detect_batch_w1_ns_per_px"] * float64(b.M)
	p.vals["sched.parallel_eff"] = w1 / wN / float64(nproc)

	tiles := int(p.vals["tile.tiles"])
	loop, err := p.timed("sched.ForEach.empty", p.reps(200), func() error {
		sched.Shared().ForEach(tiles, 0, 1, func(_, _, _ int) {})
		return nil
	})
	if err != nil {
		return err
	}
	p.vals["sched.foreach_overhead_us"] = loop / 1e3

	one, err := core.NewBatch(1, b.N, b.Row(0))
	if err != nil {
		return err
	}
	small, err := p.timed("core.DetectBatch.1px", p.reps(500), func() error {
		_, err := core.DetectBatch(p.ctx, one, opt, core.BatchConfig{})
		return err
	})
	if err != nil {
		return err
	}
	p.vals["core.small_batch_us"] = small / 1e3

	design, err := p.timed("core.DesignFor", p.reps(500), func() error {
		_, err := core.DesignFor(opt, b.N)
		return err
	})
	if err != nil {
		return err
	}
	p.vals["core.design_for_us"] = design / 1e3
	return nil
}

// --- cube path --------------------------------------------------------------

func (p *prober) cubePath() error {
	b, opt := p.in.batch, p.in.opt
	raw := p.in.raw
	if raw == nil {
		w := p.in.width
		if w <= 0 || b.M%w != 0 {
			w = b.M
		}
		var err error
		if raw, err = cube.FromFlat(w, b.M/w, b.N, b.Y); err != nil {
			return err
		}
	}
	var compact *cube.Cube
	drop, err := p.timed("cube.DropEmptySlices", p.reps(5), func() error {
		var err error
		compact, _, err = raw.DropEmptySlices()
		return err
	})
	if err != nil {
		return err
	}
	p.vals["cube.drop_empty_ms"] = drop / 1e6
	p.vals["cube.kept_date_frac"] = float64(compact.Dates) / float64(raw.Dates)

	cb, err := core.NewBatch(compact.Pixels(), compact.Dates, compact.Values)
	if err != nil {
		return err
	}
	clike, err := p.timed("baseline.CLike", p.reps(5), func() error {
		_, err := baseline.CLike(p.ctx, cb, opt, 0)
		return err
	})
	if err != nil {
		return err
	}
	p.vals["baseline.clike_ms"] = clike / 1e6
	p.vals["baseline.clike_ns_per_px"] = clike / float64(cb.M)

	whole, err := p.timed("bfast.ProcessCube", p.reps(5), func() error {
		_, err := bfast.ProcessCube(p.ctx, raw, opt, true, 0)
		return err
	})
	if err != nil {
		return err
	}
	p.vals["cube.assemble_ms"] = (whole - drop - clike) / 1e6

	tiled, err := p.timed("core.DetectBatch.compacted", p.reps(5), func() error {
		_, err := core.DetectBatch(p.ctx, cb, opt, core.BatchConfig{})
		return err
	})
	if err != nil {
		return err
	}
	p.vals["core.detect_batch_ms_same_input"] = tiled / 1e6

	var pre, chunking []float64
	var last *pipeline.Result
	for i, reps := 0, p.reps(3); i < reps; i++ {
		sp := p.tr.start(p.root, "pipeline.Run")
		last, err = pipeline.Run(p.ctx, raw, pipeline.Config{Options: opt, Chunks: 8, SampleM: 2048, DropEmpty: true})
		p.tr.end(sp)
		if err != nil {
			return fmt.Errorf("pipeline.Run: %w", err)
		}
		pre = append(pre, float64(last.Phases.Preprocess)/1e6)
		chunking = append(chunking, float64(last.Phases.Chunking)/1e6)
	}
	p.vals["pipeline.preprocess_ms"] = median(pre)
	p.vals["pipeline.chunking_ms"] = median(chunking)
	p.vals["pipeline.kernel_model_ms"] = float64(last.Phases.Kernel) / 1e6
	p.vals["pipeline.transfer_model_ms"] = float64(last.Phases.Transfer) / 1e6
	return nil
}

// --- serving ----------------------------------------------------------------

func (p *prober) serving() error {
	b, opt := p.in.batch, p.in.opt
	n := b.N
	// The requests are the workload's own shape on the probe's pixels:
	// 1,1,4,1 pixels, four-decimal values.
	px := min(b.M, 256)
	scene := append([]float64(nil), b.Y[:px*n]...)
	quantise(scene)
	bodies, firstPx, err := buildBodies(scene, px, n, opt.History)
	if err != nil {
		return err
	}
	ls, err := bootServer(p.ctx, p.env, false, p.tr, p.root)
	if err != nil {
		return err
	}
	defer ls.close()

	reqs := p.reps(2000)
	var buf bytes.Buffer
	var reqBytes, respBytes float64
	lat := make([]float64, 0, reqs)
	for i := 0; i < reqs+reqs/10; i++ {
		body := bodies[i%len(bodies)]
		sp := p.tr.start(p.root, "http.batch")
		code, err := ls.do(p.ctx, http.MethodPost, "/v1/batch", bytes.NewReader(body), int64(len(body)), &buf)
		p.tr.end(sp)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("/v1/batch probe: status %d: %v", code, err)
		}
		if i >= reqs/10 { // the first tenth warms the connection
			lat = append(lat, float64(p.tr.dur(sp)))
			reqBytes += float64(len(body))
			respBytes += float64(buf.Len())
		}
	}
	roundtrip := median(lat)
	p.vals["server.roundtrip_us"] = roundtrip / 1e3
	p.vals["server.req_bytes"] = reqBytes / float64(len(lat))
	p.vals["server.resp_bytes"] = respBytes / float64(len(lat))

	lat = lat[:0]
	for i := 0; i < reqs; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(bodies[i%len(bodies)]))
		sp := p.tr.start(p.root, "server.ServeHTTP")
		ls.srv.ServeHTTP(rec, req)
		p.tr.end(sp)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ServeHTTP probe: status %d", rec.Code)
		}
		lat = append(lat, float64(p.tr.dur(sp)))
	}
	handler := median(lat)
	p.vals["server.handler_us"] = handler / 1e3
	p.vals["server.transport_us"] = (roundtrip - handler) / 1e3

	lat = lat[:0]
	for i := 0; i < reqs; i++ {
		k := i % len(bodies)
		m := serveSizes[k%len(serveSizes)]
		batch, err := core.NewBatch(m, n, scene[firstPx[k]*n:(firstPx[k]+m)*n])
		if err != nil {
			return err
		}
		sp := p.tr.start(p.root, "core.DetectBatch.request")
		_, err = core.DetectBatch(p.ctx, batch, opt, core.BatchConfig{})
		p.tr.end(sp)
		if err != nil {
			return err
		}
		lat = append(lat, float64(p.tr.dur(sp)))
	}
	detect := median(lat)
	p.vals["server.self_us_per_req"] = (handler - detect) / 1e3
	p.vals["server.self_frac"] = (handler - detect) / handler

	row := server.Series(scene[:n])
	var wire []byte
	marshal, err := p.timed("server.Series.MarshalJSON", p.reps(2000), func() error {
		var err error
		wire, err = row.MarshalJSON()
		return err
	})
	if err != nil {
		return err
	}
	unmarshal, err := p.timed("server.Series.UnmarshalJSON", p.reps(2000), func() error {
		var s server.Series
		return s.UnmarshalJSON(wire)
	})
	if err != nil {
		return err
	}
	p.vals["server.series_marshal_ns_per_value"] = marshal / float64(n)
	p.vals["server.series_unmarshal_ns_per_value"] = unmarshal / float64(n)

	const block = 1000
	spanNs, err := p.timed("obs.StartSpan+End", p.reps(20), func() error {
		ctx := obs.ContextWithSpan(p.ctx, obs.NewSpan("probe"))
		for i := 0; i < block; i++ {
			_, sp := obs.StartSpan(ctx, "child")
			sp.End()
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.vals["obs.span_ns"] = spanNs / block
	h := obs.NewHistogram(obs.DefaultBuckets)
	histNs, err := p.timed("obs.Histogram.Observe", p.reps(20), func() error {
		for i := 0; i < block; i++ {
			h.Observe(float64(i % 100))
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.vals["obs.histogram_observe_ns"] = histNs / block

	return p.coalescer(scene, firstPx, n, reqs)
}

// coalescer measures the micro-batcher through its own API with its
// default configuration, from min(2, nproc) goroutines: the evidence row
// for keeping or deleting it.
func (p *prober) coalescer(scene []float64, firstPx []int, n, reqs int) error {
	bt := coalesce.New(coalesce.Config{Metrics: obs.NewRegistry()})
	defer bt.Close()
	nc := clientCap()
	type sample struct {
		detectNs, waitNs float64
		meta             coalesce.FlushMeta
	}
	per := make([][]sample, nc)
	errs := make([]error, nc)
	sp := p.tr.start(p.root, "coalesce.Batcher.Detect")
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < reqs; i += nc {
				k := i % len(firstPx)
				m := serveSizes[k%len(serveSizes)]
				t0 := time.Now()
				_, meta, err := bt.Detect(p.ctx, nil, scene[firstPx[k]*n:(firstPx[k]+m)*n], m, n, p.in.opt, core.BatchConfig{})
				if err != nil {
					errs[c] = err
					return
				}
				per[c] = append(per[c], sample{float64(time.Since(t0)), float64(meta.Wait), meta})
			}
		}(c)
	}
	wg.Wait()
	p.tr.end(sp)
	var detect, wait []float64
	flushes := make(map[int64]coalesce.FlushMeta)
	for c := range per {
		if errs[c] != nil {
			return fmt.Errorf("coalesce.Detect: %w", errs[c])
		}
		for _, s := range per[c] {
			detect = append(detect, s.detectNs)
			wait = append(wait, s.waitNs)
			flushes[s.meta.ID] = s.meta
		}
	}
	var pixels, callers float64
	for _, f := range flushes {
		pixels += float64(f.Pixels)
		callers += float64(f.Callers)
	}
	p.vals["coalesce.detect_us_p50"] = median(detect) / 1e3
	p.vals["coalesce.added_wait_us_p50"] = median(wait) / 1e3
	p.vals["coalesce.pixels_per_flush"] = pixels / float64(len(flushes))
	p.vals["coalesce.callers_per_flush"] = callers / float64(len(flushes))
	return nil
}

// --- NRT --------------------------------------------------------------------

func (p *prober) nrtPath() error {
	b, opt := p.in.batch, p.in.opt
	N, n := b.N, opt.History
	m := min(b.M, 8192)
	dates := min(N-n, p.reps(20))
	scene := append([]float64(nil), b.Y[:m*N]...)
	quantise(scene)
	history := make([]float64, 0, m*n)
	for i := 0; i < m; i++ {
		history = append(history, scene[i*N:i*N+n]...)
	}
	dir, err := os.MkdirTemp(p.env.workDir, "nrt-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	store, err := state.NewFileStore(filepath.Join(dir, "state"), reg)
	if err != nil {
		return err
	}
	// No fit cache, so every fit is cold; no automatic snapshots, so
	// observe and snapshot are timed apart.
	mg := nrt.NewManager(nrt.Config{Store: store, Metrics: reg, SnapshotEvery: -1, CacheSize: -1})
	var id string
	fit, err := p.timed("nrt.Manager.Fit", p.reps(2), func() error {
		if id != "" {
			if err := mg.Delete(p.ctx, id); err != nil {
				return err
			}
		}
		sum, err := mg.Fit(p.ctx, nrt.FitRequest{Options: opt, Pixels: m, History: history, Capacity: N})
		id = sum.ID
		return err
	})
	if err != nil {
		return err
	}
	p.vals["nrt.fit_ms"] = fit / 1e6

	row := make([]float64, m)
	d := 0
	observe, err := p.timed("nrt.Manager.Observe", dates, func() error {
		for i := range row {
			row[i] = scene[i*N+n+d]
		}
		d++
		_, err := mg.Observe(p.ctx, id, row, 1)
		return err
	})
	if err != nil {
		return err
	}
	p.vals["nrt.observe_ms"] = observe / 1e6

	snapshot, err := p.timed("nrt.Manager.SnapshotNow", p.reps(10), func() error {
		return mg.SnapshotNow(p.ctx, id)
	})
	if err != nil {
		return err
	}
	p.vals["nrt.snapshot_ms"] = snapshot / 1e6

	blob, err := store.Load(p.ctx, id)
	if err != nil {
		return err
	}
	p.vals["state.snapshot_bytes_per_px"] = float64(len(blob)) / float64(m)
	var snap *state.SessionSnapshot
	decode, err := p.timed("state.DecodeSession", p.reps(10), func() error {
		var err error
		snap, err = state.DecodeSession(blob)
		return err
	})
	if err != nil {
		return err
	}
	encode, err := p.timed("state.EncodeSession", p.reps(10), func() error {
		sink += float64(len(state.EncodeSession(snap)))
		return nil
	})
	if err != nil {
		return err
	}
	p.vals["state.decode_ms"] = decode / 1e6
	p.vals["state.encode_ms"] = encode / 1e6
	save, err := p.timed("state.FileStore.Save", p.reps(10), func() error {
		return store.Save(p.ctx, "bench-probe", blob)
	})
	if err != nil {
		return err
	}
	p.vals["state.file_save_ms"] = save / 1e6
	if err := store.Delete(p.ctx, "bench-probe"); err != nil {
		return err
	}
	restore, err := p.timed("nrt.Manager.Restore", p.reps(3), func() error {
		fresh := nrt.NewManager(nrt.Config{Store: store, Metrics: reg, SnapshotEvery: -1, CacheSize: -1})
		got, err := fresh.Restore(p.ctx)
		if err == nil && got != 1 {
			err = fmt.Errorf("restored %d sessions, want 1", got)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.vals["nrt.restore_ms"] = restore / 1e6

	// The same fit and observes over HTTP, on a server configured as the
	// nrt-stream workload's; what it adds to the manager calls is the
	// serving layer's own share.
	ses, err := buildSession(scene, m, N, n, 0, dates, p.tr, p.root)
	if err != nil {
		return err
	}
	ls, err := bootServer(p.ctx, p.env, true, p.tr, p.root)
	if err != nil {
		return err
	}
	defer ls.close()
	play := p.tr.start(p.root, "nrt.session")
	var rec roundRec
	ls.playSession(p.ctx, ses, m, &rec, p.tr, play)
	p.tr.end(play)
	if rec.failed > 0 {
		return fmt.Errorf("NRT probe over HTTP: %w", rec.firstErr)
	}
	sort.Float64s(rec.latMs)
	httpFit := float64(p.tr.selfByName(play)["http.fit"]) / 1e6
	p.vals["server.fit_self_ms"] = httpFit - p.vals["nrt.fit_ms"]
	p.vals["server.observe_self_ms"] = percentile(rec.latMs, 50) - p.vals["nrt.observe_ms"] - p.vals["nrt.snapshot_ms"]
	p.vals["server.observe_resp_bytes"] = float64(len(ses.final))
	return nil
}
