package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bfast"
	"bfast/internal/core"
	"bfast/internal/series"
	"bfast/internal/server"
	"bfast/internal/workload"
)

// roundRec collects what one round of ops produced.
type roundRec struct {
	latMs     []float64 // one per latency-bearing op
	px        int64     // pixels (pixel-dates for nrt-stream) completed
	attempted int
	failed    int
	firstErr  error
}

func (r *roundRec) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *roundRec) merge(o *roundRec) {
	r.latMs = append(r.latMs, o.latMs...)
	r.px += o.px
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// instance is one workload, set up and ready to run rounds.
type instance interface {
	// warmup runs the sizing's WarmupOps untimed and unrecorded.
	warmup(ctx context.Context) error
	// round runs round r's ops, timing each from outside the program
	// under test. Spans go to tr under parent; a nil tr is tracing off.
	round(ctx context.Context, r int, rec *roundRec, tr *tracer, parent spanID)
	// verify checks the kept outputs against the scalar oracle, after
	// the timed section. It returns how many ops it checked and how many
	// of them held a wrong pixel.
	verify(ctx context.Context) (checked, failed int, err error)
	digest() digest
	// probe returns the pixels of one op, for the per-layer probes.
	probe() (*probeInput, error)
	close() error
}

// runEnv is where and how wide a workload may run.
type runEnv struct {
	workDir string // scratch for logs and NRT state; inside the checkout
	clients int    // closed-loop callers: the workload's, capped at min(2, nproc)
}

// newInstance generates the workload's inputs from seed and brings it to
// the point where the first timed op could start, except for warm-up.
// The phases are recorded as spans (workload.generate, bench.marshal,
// bench.boot) so the traced run can explain setup_s.
func newInstance(ctx context.Context, sz sizing, seed int64, env runEnv, tr *tracer, parent spanID) (instance, error) {
	switch sz.Kind {
	case kindBatch:
		return newBatchInst(sz, seed, tr, parent)
	case kindCube:
		return newCubeInst(sz, seed, tr, parent)
	case kindServe:
		return newServeInst(ctx, sz, seed, env, tr, parent)
	case kindNRT:
		return newNRTInst(ctx, sz, seed, env, tr, parent)
	}
	return nil, fmt.Errorf("workload %s: unknown kind", sz.Name)
}

func generate(spec workload.Spec, seed int64, tr *tracer, parent spanID) (*workload.Dataset, error) {
	spec.Seed = seed
	sp := tr.start(parent, "workload.generate")
	defer tr.end(sp)
	return workload.Generate(spec)
}

// quantise rounds to four decimals, the precision scaled reflectance
// products ship in; full float64 entropy would make the wire workloads
// measure strconv on 17-digit decimals.
func quantise(y []float64) {
	for i, v := range y {
		if !math.IsNaN(v) {
			y[i] = math.Round(v*1e4) / 1e4
		}
	}
}

// --- batch-clouds, batch-iid ------------------------------------------------

type batchInst struct {
	sz      sizing
	det     *bfast.Detector
	opt     core.Options
	design  *series.DesignMatrix
	chunks  []*core.Batch
	dig     digest
	samples [][]pixelOut // per recorded op: every oracleStep-th pixel
	opChunk []int        // per recorded op: which chunk it ran
}

func newBatchInst(sz sizing, seed int64, tr *tracer, parent spanID) (*batchInst, error) {
	ds, err := generate(sz.Spec, seed, tr, parent)
	if err != nil {
		return nil, err
	}
	b := &batchInst{sz: sz, opt: core.DefaultOptions(sz.OptHistory), dig: fnvOffset}
	if b.det, err = bfast.NewDetector(sz.Spec.N, b.opt); err != nil {
		return nil, err
	}
	if b.design, err = core.DesignFor(b.opt, sz.Spec.N); err != nil {
		return nil, err
	}
	n := sz.Spec.N
	for lo := 0; lo+sz.OpPx <= sz.Spec.M; lo += sz.OpPx {
		c, err := core.NewBatch(sz.OpPx, n, ds.Y[lo*n:(lo+sz.OpPx)*n])
		if err != nil {
			return nil, err
		}
		b.chunks = append(b.chunks, c)
	}
	if len(b.chunks) != sz.Cycle {
		return nil, fmt.Errorf("%s: %d chunks, cycle is %d", sz.Name, len(b.chunks), sz.Cycle)
	}
	return b, nil
}

func (b *batchInst) op(ctx context.Context, i int, rec *roundRec, tr *tracer, parent spanID) {
	c := i % len(b.chunks)
	sp := tr.start(parent, "bfast.Detector.DetectBatch")
	t0 := time.Now()
	res, err := b.det.DetectBatch(ctx, b.chunks[c], bfast.BatchOptions{})
	lat := time.Since(t0)
	tr.end(sp)
	if rec == nil {
		return
	}
	rec.attempted++
	if err != nil {
		rec.fail(err)
		return
	}
	rec.latMs = append(rec.latMs, float64(lat)/1e6)
	rec.px += int64(len(res))
	keep := make([]pixelOut, 0, len(res)/oracleStep+1)
	for p, r := range res {
		b.dig = b.dig.result(r)
		if p%oracleStep == 0 {
			keep = append(keep, outOf(r))
		}
	}
	b.samples = append(b.samples, keep)
	b.opChunk = append(b.opChunk, c)
}

func (b *batchInst) warmup(ctx context.Context) error {
	for i := 0; i < b.sz.WarmupOps; i++ {
		b.op(ctx, i, nil, nil, 0)
	}
	return ctx.Err()
}

func (b *batchInst) round(ctx context.Context, r int, rec *roundRec, tr *tracer, parent spanID) {
	for i := r * b.sz.PerRound; i < (r+1)*b.sz.PerRound; i++ {
		b.op(ctx, i, rec, tr, parent)
	}
}

func (b *batchInst) verify(context.Context) (checked, failed int, err error) {
	want := make([][]core.Result, len(b.chunks))
	for k, c := range b.opChunk {
		if want[c] == nil {
			for p := 0; p < b.chunks[c].M; p += oracleStep {
				r, err := core.Detect(b.chunks[c].Row(p), b.design, b.opt)
				if err != nil {
					return checked, failed, err
				}
				want[c] = append(want[c], r)
			}
		}
		checked++
		for s, got := range b.samples[k] {
			if !sameResult(got, want[c][s]) {
				failed++
				break
			}
		}
	}
	return checked, failed, nil
}

func (b *batchInst) digest() digest { return b.dig }

func (b *batchInst) probe() (*probeInput, error) {
	return &probeInput{opt: b.opt, batch: b.chunks[0], width: b.sz.Spec.Width}, nil
}

func (b *batchInst) close() error { return nil }

// --- cube-swath -------------------------------------------------------------

type cubeInst struct {
	sz      sizing
	opt     core.Options
	cube    *bfast.Cube
	dig     digest
	samples [][2]uint64 // per recorded op and sampled pixel: break, magnitude bits
	perOp   int
}

func newCubeInst(sz sizing, seed int64, tr *tracer, parent spanID) (*cubeInst, error) {
	ds, err := generate(sz.Spec, seed, tr, parent)
	if err != nil {
		return nil, err
	}
	c := &cubeInst{sz: sz, opt: core.DefaultOptions(sz.OptHistory), dig: fnvOffset}
	w := sz.Spec.Width
	if c.cube, err = bfast.CubeFromFlat(w, sz.Spec.M/w, sz.Spec.N, ds.Y); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *cubeInst) op(ctx context.Context, rec *roundRec, tr *tracer, parent spanID) {
	sp := tr.start(parent, "bfast.ProcessCube")
	t0 := time.Now()
	m, err := bfast.ProcessCube(ctx, c.cube, c.opt, true, 0)
	lat := time.Since(t0)
	tr.end(sp)
	if rec == nil {
		return
	}
	rec.attempted++
	if err != nil {
		rec.fail(err)
		return
	}
	rec.latMs = append(rec.latMs, float64(lat)/1e6)
	rec.px += int64(len(m.Break))
	c.perOp = 0
	for p, brk := range m.Break {
		mag := math.Float64bits(m.Magnitude[p])
		c.dig = c.dig.word(uint64(int64(brk))).word(mag)
		if p%oracleStep == 0 {
			c.samples = append(c.samples, [2]uint64{uint64(int64(brk)), mag})
			c.perOp++
		}
	}
}

func (c *cubeInst) warmup(ctx context.Context) error {
	for i := 0; i < c.sz.WarmupOps; i++ {
		c.op(ctx, nil, nil, 0)
	}
	return ctx.Err()
}

func (c *cubeInst) round(ctx context.Context, _ int, rec *roundRec, tr *tracer, parent spanID) {
	for i := 0; i < c.sz.PerRound; i++ {
		c.op(ctx, rec, tr, parent)
	}
}

func (c *cubeInst) verify(context.Context) (checked, failed int, err error) {
	if c.perOp == 0 {
		return 0, 0, nil
	}
	compact, _, err := c.cube.DropEmptySlices()
	if err != nil {
		return 0, 0, err
	}
	x, err := core.DesignFor(c.opt, compact.Dates)
	if err != nil {
		return 0, 0, err
	}
	want := make([]core.Result, 0, c.perOp)
	for p := 0; p < compact.Pixels(); p += oracleStep {
		r, err := core.Detect(compact.Series(p), x, c.opt)
		if err != nil {
			return 0, 0, err
		}
		want = append(want, r)
	}
	for lo := 0; lo < len(c.samples); lo += c.perOp {
		checked++
		for s, got := range c.samples[lo : lo+c.perOp] {
			if !sameMapPixel(int(int64(got[0])), math.Float64frombits(got[1]), want[s]) {
				failed++
				break
			}
		}
	}
	return checked, failed, nil
}

func (c *cubeInst) digest() digest { return c.dig }

func (c *cubeInst) probe() (*probeInput, error) {
	compact, _, err := c.cube.DropEmptySlices()
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatch(compact.Pixels(), compact.Dates, compact.Values)
	if err != nil {
		return nil, err
	}
	return &probeInput{opt: c.opt, batch: b, raw: c.cube}, nil
}

func (c *cubeInst) close() error { return nil }

// --- the served workloads' shared plumbing ----------------------------------

// liveServer is a bfast.Server configured as cmd/bfast-serve configures
// it when given no flags, listening on loopback.
type liveServer struct {
	srv     *bfast.Server
	base    string
	client  *http.Client
	served  chan error
	logFile *os.File
	dir     string
}

// bootServer starts the server and returns once /v1/healthz answers 200.
// nrtState gives it an NRT.StateDir (snapshot and fsync on every
// observe); without, sessions live in memory, bfast-serve's default.
func bootServer(ctx context.Context, env runEnv, nrtState bool, tr *tracer, parent spanID) (*liveServer, error) {
	sp := tr.start(parent, "bench.boot")
	defer tr.end(sp)
	dir, err := os.MkdirTemp(env.workDir, "srv-")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{dir: dir, served: make(chan error, 1)}
	fail := func(err error) (*liveServer, error) {
		ls.close()
		return nil, err
	}
	if ls.logFile, err = os.Create(filepath.Join(dir, "requests.log")); err != nil {
		return fail(err)
	}
	logger, err := bfast.NewLogger(ls.logFile, "info", "text")
	if err != nil {
		return fail(err)
	}
	cfg := bfast.ServerConfig{Logger: logger, SampleRuntimeEvery: 10 * time.Second}
	if nrtState {
		cfg.NRT.StateDir = filepath.Join(dir, "state")
	}
	if ls.srv, err = bfast.NewServer(cfg); err != nil {
		return fail(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	ls.base = "http://" + l.Addr().String()
	go func(served chan<- error) { // close() waits for it
		defer close(served)
		served <- ls.srv.Serve(l)
	}(ls.served)
	ls.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: env.clients, MaxIdleConnsPerHost: env.clients,
	}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ls.client.Get(ls.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("server not healthy after 10s: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// do sends one request and reads the whole reply into buf.
func (ls *liveServer) do(ctx context.Context, method, path string, body io.Reader, size int64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, ls.base+path, body)
	if err != nil {
		return 0, err
	}
	req.ContentLength = size
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// close drains and stops the server, waits for its accept loop to
// return, and removes its scratch directory.
func (ls *liveServer) close() error {
	var err error
	if ls.srv != nil && ls.base != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = ls.srv.Shutdown(ctx)
		cancel()
		if serr := <-ls.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		ls.client.CloseIdleConnections()
	}
	if ls.logFile != nil {
		ls.logFile.Close()
	}
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

// --- serve-small ------------------------------------------------------------

type serveInst struct {
	sz      sizing
	env     runEnv
	ls      *liveServer
	opt     core.Options
	scene   []float64 // quantised M×N, kept for the oracle
	bodies  [][]byte
	firstPx []int // first scene pixel of each body
	dig     digest
	mu      sync.Mutex
	kept    map[int][]byte // op index -> response, every serveCheckStep-th
}

// buildBodies marshals the distinct /v1/batch bodies: consecutive scene
// pixels, serveSizes pixels per body, as many bodies as the scene holds
// up to serveBodies.
func buildBodies(y []float64, m, n, history int) (bodies [][]byte, firstPx []int, err error) {
	next := 0
	for i := 0; i < serveBodies; i++ {
		k := serveSizes[i%len(serveSizes)]
		if next+k > m {
			break
		}
		px := make([]server.Series, k)
		for j := range px {
			px[j] = server.Series(y[(next+j)*n : (next+j+1)*n])
		}
		raw, err := json.Marshal(server.DetectRequest{Pixels: px, History: history})
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, raw)
		firstPx = append(firstPx, next)
		next += k
	}
	// Keep whole cycles so body i always has serveSizes[i%4] pixels.
	whole := len(bodies) / len(serveSizes) * len(serveSizes)
	if whole == 0 {
		return nil, nil, fmt.Errorf("scene of %d pixels holds no full request cycle", m)
	}
	return bodies[:whole], firstPx[:whole], nil
}

func newServeInst(ctx context.Context, sz sizing, seed int64, env runEnv, tr *tracer, parent spanID) (*serveInst, error) {
	ds, err := generate(sz.Spec, seed, tr, parent)
	if err != nil {
		return nil, err
	}
	s := &serveInst{sz: sz, env: env, opt: core.DefaultOptions(sz.OptHistory), scene: ds.Y,
		dig: fnvOffset, kept: make(map[int][]byte)}
	sp := tr.start(parent, "bench.marshal")
	quantise(s.scene)
	s.bodies, s.firstPx, err = buildBodies(s.scene, sz.Spec.M, sz.Spec.N, sz.OptHistory)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if s.ls, err = bootServer(ctx, env, false, tr, parent); err != nil {
		return nil, err
	}
	return s, nil
}

// run sends ops [lo, hi) from the workload's closed-loop clients, client
// c taking every env.clients-th op, and waits for all of them.
func (s *serveInst) run(ctx context.Context, lo, hi int, rec *roundRec, tr *tracer, parent spanID) {
	nc := s.env.clients
	recs := make([]roundRec, nc)
	sums := make([]digest, nc)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := lo + c; i < hi; i += nc {
				body := s.bodies[i%len(s.bodies)]
				sp := tr.start(parent, "http.batch")
				t0 := time.Now()
				code, err := s.ls.do(ctx, http.MethodPost, "/v1/batch", bytes.NewReader(body), int64(len(body)), &buf)
				lat := time.Since(t0)
				tr.end(sp)
				if rec == nil {
					continue
				}
				r := &recs[c]
				r.attempted++
				if err != nil {
					r.fail(err)
					continue
				}
				if code != http.StatusOK {
					r.fail(fmt.Errorf("/v1/batch: status %d: %s", code, bytes.TrimSpace(buf.Bytes())))
					continue
				}
				r.latMs = append(r.latMs, float64(lat)/1e6)
				r.px += int64(serveSizes[i%len(serveSizes)])
				// Summed, not chained: the order in which two clients
				// finish must not change the digest.
				sums[c] += fnvOffset.word(uint64(i)).bytes(buf.Bytes())
				if i%serveCheckStep == 0 {
					cp := append([]byte(nil), buf.Bytes()...)
					s.mu.Lock()
					s.kept[i] = cp
					s.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if rec == nil {
		return
	}
	for c := range recs {
		rec.merge(&recs[c])
		s.dig += sums[c]
	}
}

func (s *serveInst) warmup(ctx context.Context) error {
	s.run(ctx, 0, s.sz.WarmupOps, nil, nil, 0)
	return ctx.Err()
}

func (s *serveInst) round(ctx context.Context, r int, rec *roundRec, tr *tracer, parent spanID) {
	s.run(ctx, r*s.sz.PerRound, (r+1)*s.sz.PerRound, rec, tr, parent)
}

func (s *serveInst) verify(context.Context) (checked, failed int, err error) {
	n := s.sz.Spec.N
	x, err := core.DesignFor(s.opt, n)
	if err != nil {
		return 0, 0, err
	}
	for i, raw := range s.kept {
		checked++
		var got []server.DetectResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			return checked, failed, fmt.Errorf("response %d: %w", i, err)
		}
		b := i % len(s.bodies)
		ok := len(got) == serveSizes[b%len(serveSizes)]
		for j := 0; ok && j < len(got); j++ {
			p := s.firstPx[b] + j
			want, err := core.Detect(s.scene[p*n:(p+1)*n], x, s.opt)
			if err != nil {
				return checked, failed, err
			}
			ok = sameResponse(got[j], want)
		}
		if !ok {
			failed++
		}
	}
	return checked, failed, nil
}

func (s *serveInst) digest() digest { return s.dig }

func (s *serveInst) probe() (*probeInput, error) {
	b, err := core.NewBatch(s.sz.Spec.M, s.sz.Spec.N, s.scene)
	if err != nil {
		return nil, err
	}
	return &probeInput{opt: s.opt, batch: b}, nil
}

func (s *serveInst) close() error { return s.ls.close() }

// --- nrt-stream -------------------------------------------------------------

// nrtSession is one session's pre-marshalled traffic. The scene's floats
// are dropped once the bodies exist; verification regenerates them from
// the seed.
type nrtSession struct {
	seed    int64
	dates   int      // observes this session sends
	fitBody []byte   // complete POST /v1/fit body
	rows    [][]byte // per date: the JSON array of the scene's values
	final   []byte   // the last observe's response, kept for the oracle
}

type nrtInst struct {
	sz       sizing
	ls       *liveServer
	opt      core.Options
	sessions []*nrtSession // one per round
	warm     *nrtSession
	dig      digest
	first    []float64 // session 0's full quantised scene, for the probes
}

// sessionSeed gives every session of every seed its own scene, so no fit
// ever hits the fit cache.
func sessionSeed(seed int64, s int) int64 { return seed*1000 + int64(s) }

func nrtScene(sz sizing, seed int64, tr *tracer, parent spanID) ([]float64, error) {
	ds, err := generate(sz.Spec, seed, tr, parent)
	if err != nil {
		return nil, err
	}
	quantise(ds.Y)
	return ds.Y, nil
}

// buildSession marshals one session's traffic from the m×n scene y with
// history h: the fit body and one row per observed date.
func buildSession(y []float64, m, n, h int, seed int64, dates int, tr *tracer, parent spanID) (*nrtSession, error) {
	sp := tr.start(parent, "bench.marshal")
	defer tr.end(sp)
	px := make([]server.Series, m)
	for i := range px {
		px[i] = server.Series(y[i*n : i*n+h])
	}
	fit, err := json.Marshal(server.FitHTTPRequest{Pixels: px, History: h, Capacity: n})
	if err != nil {
		return nil, err
	}
	s := &nrtSession{seed: seed, dates: dates, fitBody: fit}
	row := make(server.Series, m)
	for d := 0; d < dates; d++ {
		for i := range row {
			row[i] = y[i*n+h+d]
		}
		raw, err := row.MarshalJSON()
		if err != nil {
			return nil, err
		}
		s.rows = append(s.rows, raw)
	}
	return s, nil
}

func newNRTInst(ctx context.Context, sz sizing, seed int64, env runEnv, tr *tracer, parent spanID) (*nrtInst, error) {
	n := &nrtInst{sz: sz, opt: core.DefaultOptions(sz.OptHistory), dig: fnvOffset}
	build := func(s, dates int) (*nrtSession, error) {
		y, err := nrtScene(sz, sessionSeed(seed, s), tr, parent)
		if err != nil {
			return nil, err
		}
		if s == 0 {
			n.first = y
		}
		return buildSession(y, sz.Spec.M, sz.Spec.N, sz.OptHistory, sessionSeed(seed, s), dates, tr, parent)
	}
	for s := 0; s < sz.Rounds; s++ {
		ses, err := build(s, sz.PerRound)
		if err != nil {
			return nil, err
		}
		n.sessions = append(n.sessions, ses)
	}
	var err error
	if n.warm, err = build(sz.Rounds, sz.WarmupOps); err != nil {
		return nil, err
	}
	if n.ls, err = bootServer(ctx, env, true, tr, parent); err != nil {
		return nil, err
	}
	return n, nil
}

// playSession runs one session of px pixels: fit, its observes one date
// at a time, delete. Only observes carry a latency; fits and deletes
// count in the wall. With a rec, the last observe's reply is kept in
// s.final.
func (ls *liveServer) playSession(ctx context.Context, s *nrtSession, px int, rec *roundRec, tr *tracer, parent spanID) {
	var buf bytes.Buffer
	attempt := func(name, method, path string, body io.Reader, size int64) (time.Duration, bool) {
		sp := tr.start(parent, name)
		t0 := time.Now()
		code, err := ls.do(ctx, method, path, body, size, &buf)
		lat := time.Since(t0)
		tr.end(sp)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %.200s", path, code, bytes.TrimSpace(buf.Bytes()))
		}
		if rec != nil {
			rec.attempted++
			if err != nil {
				rec.fail(err)
			}
		}
		return lat, err == nil
	}
	if _, ok := attempt("http.fit", http.MethodPost, "/v1/fit", bytes.NewReader(s.fitBody), int64(len(s.fitBody))); !ok {
		return
	}
	var sum struct {
		ID string `json:"session"`
	}
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil || sum.ID == "" {
		if rec != nil {
			rec.fail(fmt.Errorf("/v1/fit reply has no session id: %v", err))
		}
		return
	}
	head := []byte(`{"session":"` + sum.ID + `","dates":[`)
	tail := []byte(`]}`)
	for _, row := range s.rows {
		body := io.MultiReader(bytes.NewReader(head), bytes.NewReader(row), bytes.NewReader(tail))
		lat, ok := attempt("http.observe", http.MethodPost, "/v1/observe", body, int64(len(head)+len(row)+len(tail)))
		if ok && rec != nil {
			rec.latMs = append(rec.latMs, float64(lat)/1e6)
			rec.px += int64(px)
		}
	}
	if rec != nil {
		s.final = append(s.final[:0], buf.Bytes()...)
	}
	attempt("http.delete", http.MethodDelete, "/v1/sessions?session="+sum.ID, nil, 0)
}

func (n *nrtInst) warmup(ctx context.Context) error {
	n.ls.playSession(ctx, n.warm, n.sz.Spec.M, nil, nil, 0)
	return ctx.Err()
}

func (n *nrtInst) round(ctx context.Context, r int, rec *roundRec, tr *tracer, parent spanID) {
	s := n.sessions[r]
	n.ls.playSession(ctx, s, n.sz.Spec.M, rec, tr, parent)
	// The reply opens with the session's random id; the verdicts are
	// the result.
	if at := bytes.Index(s.final, []byte(`"verdicts":`)); at >= 0 {
		n.dig = n.dig.bytes(s.final[at:])
	}
}

func (n *nrtInst) verify(ctx context.Context) (checked, failed int, err error) {
	for _, s := range n.sessions {
		if s.final == nil {
			continue
		}
		checked++
		y, err := nrtScene(n.sz, s.seed, nil, 0)
		if err != nil {
			return checked, failed, err
		}
		// The session has seen history + s.dates dates; the offline run
		// gets exactly those.
		m, full, seen := n.sz.Spec.M, n.sz.Spec.N, n.sz.OptHistory+s.dates
		cut := make([]float64, 0, m*seen)
		for i := 0; i < m; i++ {
			cut = append(cut, y[i*full:i*full+seen]...)
		}
		b, err := core.NewBatch(m, seen, cut)
		if err != nil {
			return checked, failed, err
		}
		offline, err := core.DetectBatch(ctx, b, n.opt, core.BatchConfig{})
		if err != nil {
			return checked, failed, err
		}
		bad, err := checkObserveBody(s.final, offline)
		if err != nil {
			return checked, failed, err
		}
		if bad > 0 {
			failed++
		}
	}
	return checked, failed, nil
}

func (n *nrtInst) digest() digest { return n.dig }

func (n *nrtInst) probe() (*probeInput, error) {
	b, err := core.NewBatch(n.sz.Spec.M, n.sz.Spec.N, n.first)
	if err != nil {
		return nil, err
	}
	return &probeInput{opt: n.opt, batch: b}, nil
}

func (n *nrtInst) close() error { return n.ls.close() }
