package nrt

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bfast/internal/core"
	"bfast/internal/leakcheck"
	"bfast/internal/obs"
	"bfast/internal/state"
	"bfast/internal/workload"
)

// testScene is the acceptance scene: 512 pixels, 228 dates, half the
// observations missing under a spatially-correlated cloud mask, 30% of
// pixels carrying an injected break.
func testScene(t *testing.T) (*workload.Dataset, core.Options) {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		M: 512, N: 228, History: 114,
		NaNFrac: 0.5, Mask: workload.MaskClouds,
		BreakFrac: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, core.DefaultOptions(114)
}

// offlineDetect runs the offline refit path over a scene truncated to
// nDates, returning per-pixel results — the reference the NRT path must
// match bit-for-bit.
func offlineDetect(t *testing.T, ds *workload.Dataset, opt core.Options, nDates int) []core.Result {
	t.Helper()
	x, err := core.DesignFor(opt, nDates)
	if err != nil {
		t.Fatal(err)
	}
	N := ds.Spec.N
	out := make([]core.Result, ds.Spec.M)
	for i := range out {
		r, err := core.Detect(ds.Y[i*N:i*N+nDates], x, opt)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// checkVerdicts asserts the NRT verdicts equal the offline results
// bit-for-bit, mapping the one representational difference: a monitored
// pixel whose every observation so far was missing is StatusOK with
// ValidMon 0 in the streaming view and StatusNoMonitoringData offline.
func checkVerdicts(t *testing.T, vs []Verdict, offline []core.Result, label string) {
	t.Helper()
	if len(vs) != len(offline) {
		t.Fatalf("%s: %d verdicts, %d offline results", label, len(vs), len(offline))
	}
	for i, v := range vs {
		r := offline[i]
		if r.Status == core.StatusNoMonitoringData {
			if v.Status != core.StatusOK || v.ValidMon != 0 || v.BreakOffset != -1 || v.Mean != 0 {
				t.Fatalf("%s: pixel %d: offline no-monitoring-data, nrt %+v", label, i, v)
			}
			continue
		}
		if v.Status != r.Status {
			t.Fatalf("%s: pixel %d: status %v, offline %v", label, i, v.Status, r.Status)
		}
		if v.Status != core.StatusOK {
			continue
		}
		if v.BreakOffset != r.BreakIndex {
			t.Fatalf("%s: pixel %d: break offset %d, offline %d", label, i, v.BreakOffset, r.BreakIndex)
		}
		if math.Float64bits(v.Mean) != math.Float64bits(r.MosumMean) {
			t.Fatalf("%s: pixel %d: mean %x, offline %x", label, i,
				math.Float64bits(v.Mean), math.Float64bits(r.MosumMean))
		}
	}
}

// sceneDates returns the date-major monitoring values for dates
// [from, to): out[d*M+i] = pixel i's value on absolute date from+d.
func sceneDates(ds *workload.Dataset, from, to int) []float64 {
	M, N := ds.Spec.M, ds.Spec.N
	out := make([]float64, (to-from)*M)
	for d := from; d < to; d++ {
		for i := 0; i < M; i++ {
			out[(d-from)*M+i] = ds.Y[i*N+d]
		}
	}
	return out
}

func fitScene(t *testing.T, mg *Manager, ds *workload.Dataset, opt core.Options) FitSummary {
	t.Helper()
	M, N, n := ds.Spec.M, ds.Spec.N, ds.Spec.History
	hist := make([]float64, M*n)
	for i := 0; i < M; i++ {
		copy(hist[i*n:(i+1)*n], ds.Y[i*N:i*N+n])
	}
	sum, err := mg.Fit(context.Background(), FitRequest{
		Options: opt, Pixels: M, History: hist, Capacity: N,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pixels != M || sum.NextDate != n || sum.Capacity != N {
		t.Fatalf("fit summary %+v", sum)
	}
	return sum
}

// TestObserveBitIdenticalToOfflineRefit is the tentpole acceptance test:
// folding dates one (and many) at a time through /v1/observe's engine
// must reproduce the full offline refit bit-for-bit — at a mid-stream
// checkpoint and at the end of the series.
func TestObserveBitIdenticalToOfflineRefit(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n, N := ds.Spec.History, ds.Spec.N
	mg := NewManager(Config{Metrics: obs.NewRegistry()})
	sum := fitScene(t, mg, ds, opt)
	ctx := context.Background()

	// First 60 monitoring dates one call per date (the serving cadence).
	var res ObserveResult
	var err error
	for d := n; d < n+60; d++ {
		res, err = mg.Observe(ctx, sum.ID, sceneDates(ds, d, d+1), 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	checkVerdicts(t, res.Verdicts, offlineDetect(t, ds, opt, n+60), "after 60 dates")

	// Remaining dates in one batched call (the backfill cadence).
	res, err = mg.Observe(ctx, sum.ID, sceneDates(ds, n+60, N), N-n-60)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextDate != N || res.Remaining != 0 {
		t.Fatalf("cursor after full series: %+v", res)
	}
	checkVerdicts(t, res.Verdicts, offlineDetect(t, ds, opt, N), "full series")
	if res.Breaks == 0 {
		t.Fatal("break-injected scene reported zero breaks")
	}
}

// TestRestartFromSnapshotBitIdentical is the durability acceptance test:
// SIGTERM mid-stream, reboot a fresh manager from the file snapshot,
// keep observing — the final verdicts must still equal the single
// uninterrupted offline run bit-for-bit.
func TestRestartFromSnapshotBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n, N := ds.Spec.History, ds.Spec.N
	dir := filepath.Join(t.TempDir(), "snaps")
	ctx := context.Background()

	storeA, err := state.NewFileStore(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	mgA := NewManager(Config{Store: storeA, Metrics: obs.NewRegistry()})
	sum := fitScene(t, mgA, ds, opt)
	if _, err := mgA.Observe(ctx, sum.ID, sceneDates(ds, n, n+57), 57); err != nil {
		t.Fatal(err)
	}
	if err := mgA.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// "Reboot": a brand-new manager over the same directory.
	storeB, err := state.NewFileStore(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	mgB := NewManager(Config{Store: storeB, Metrics: obs.NewRegistry()})
	restored, err := mgB.Restore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	info, err := mgB.Get(sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.NextDate != n+57 {
		t.Fatalf("restored cursor %d, want %d", info.NextDate, n+57)
	}
	res, err := mgB.Observe(ctx, sum.ID, sceneDates(ds, n+57, N), N-n-57)
	if err != nil {
		t.Fatal(err)
	}
	checkVerdicts(t, res.Verdicts, offlineDetect(t, ds, opt, N), "after restart")
}

// TestFitSessionsIndependent: two sessions fitted from the same scene
// share no record. The first is observed through its whole monitoring
// period before the second sees a date, and both must still equal the
// offline refit bit for bit, so no session's pushes reach another.
func TestFitSessionsIndependent(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n, N := ds.Spec.History, ds.Spec.N
	mg := NewManager(Config{Metrics: obs.NewRegistry()})
	ctx := context.Background()

	first := fitScene(t, mg, ds, opt)
	second := fitScene(t, mg, ds, opt)
	offline := offlineDetect(t, ds, opt, N)
	for _, id := range []string{first.ID, second.ID} {
		res, err := mg.Observe(ctx, id, sceneDates(ds, n, N), N-n)
		if err != nil {
			t.Fatal(err)
		}
		checkVerdicts(t, res.Verdicts, offline, id)
	}
}

// TestRestoreRejectsInvalid: a snapshot that passes the checksum but
// violates the monitor invariants (a hand-edited file, a foreign
// encoder) must be skipped by Restore and counted in
// nrt.snapshots.failed, while the unmutated snapshot restores. The last
// two cases carry no live pixel: their session-shared state alone is
// inconsistent.
func TestRestoreRejectsInvalid(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n := ds.Spec.History
	ctx := context.Background()
	src := state.NewMemStore()
	mg := NewManager(Config{Store: src, Metrics: obs.NewRegistry()})
	sum := fitScene(t, mg, ds, opt)
	if _, err := mg.Observe(ctx, sum.ID, sceneDates(ds, n, n+20), 20); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Load(ctx, sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	base, err := state.DecodeSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	live := -1
	for i := range base.Pixels {
		if base.Pixels[i].Status == core.StatusOK && base.Pixels[i].ValidMon > 0 {
			live = i
			break
		}
	}
	if live < 0 {
		t.Fatal("scene has no observed live pixel")
	}
	N := base.Capacity
	noLive := func(s *state.SessionSnapshot) {
		for i := range s.Pixels {
			s.Pixels[i] = state.PixelSnapshot{Status: core.StatusSingular}
		}
	}
	mutate := []func(s *state.SessionSnapshot, p *state.PixelSnapshot){
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.Beta = p.Beta[:3] },
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.Sigma = 0 },
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.Sigma = math.NaN() },
		func(s *state.SessionSnapshot, _ *state.PixelSnapshot) { s.Lambda = -1 },
		func(s *state.SessionSnapshot, _ *state.PixelSnapshot) { s.NextDate = N + 1 },
		func(s *state.SessionSnapshot, _ *state.PixelSnapshot) { s.NextDate = n - 1 },
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.ValidMon = N },
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.Break = N },
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.Window = p.Window[:1] },
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.WPos = len(p.Window) },
		func(_ *state.SessionSnapshot, p *state.PixelSnapshot) { p.NBar = 2 },
		func(s *state.SessionSnapshot, _ *state.PixelSnapshot) { s.Options.History = 0 },
		func(s *state.SessionSnapshot, _ *state.PixelSnapshot) { noLive(s); s.Options.HFrac = 2 },
		func(s *state.SessionSnapshot, _ *state.PixelSnapshot) { noLive(s); s.Options.History = n + 1 },
	}
	restore := func(s *state.SessionSnapshot) (restored int, failed int64) {
		t.Helper()
		store := state.NewMemStore()
		if err := store.Save(ctx, s.ID, state.EncodeSession(s)); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		got, err := NewManager(Config{Store: store, Metrics: reg}).Restore(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return got, reg.Counter("nrt.snapshots.failed").Value()
	}
	for i, f := range mutate {
		s, err := state.DecodeSession(blob) // a fresh deep copy of base
		if err != nil {
			t.Fatal(err)
		}
		f(s, &s.Pixels[live])
		if got, failed := restore(s); got != 0 || failed != 1 {
			t.Fatalf("mutation %d: restored %d, %d failed; want 0 and 1", i, got, failed)
		}
	}
	if got, failed := restore(base); got != 1 || failed != 0 {
		t.Fatalf("pristine snapshot: restored %d, %d failed; want 1 and 0", got, failed)
	}
}

// gateStore blocks every Save and Append once armed, until the gate
// closes; each blocked call first sends its session ID on entered.
type gateStore struct {
	state.Store
	mu      sync.Mutex
	gate    chan struct{}
	entered chan string
}

func (g *gateStore) wait(id string) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		g.entered <- id
		<-gate
	}
}

func (g *gateStore) Save(ctx context.Context, id string, data []byte) error {
	g.wait(id)
	return g.Store.Save(ctx, id, data)
}

func (g *gateStore) Append(ctx context.Context, id string, frame []byte) error {
	g.wait(id)
	return g.Store.Append(ctx, id, frame)
}

// TestLenDoesNotWaitOnObserve: counting sessions (the /v1/fit session
// limit) must not wait behind an observe that is inside its snapshot
// write, holding its session's lock.
func TestLenDoesNotWaitOnObserve(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n := ds.Spec.History
	gs := &gateStore{Store: state.NewMemStore(), entered: make(chan string)}
	mg := NewManager(Config{Store: gs, Metrics: obs.NewRegistry()})
	sum := fitScene(t, mg, ds, opt)

	gate := make(chan struct{})
	gs.mu.Lock()
	gs.gate = gate
	gs.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := mg.Observe(context.Background(), sum.ID, sceneDates(ds, n, n+1), 1)
		done <- err
	}()
	<-gs.entered // the observe now holds the session lock inside its persist

	counted := make(chan int, 1)
	go func() { counted <- mg.Len() }()
	var got int
	select {
	case got = <-counted:
	case <-time.After(5 * time.Second):
		close(gate)
		<-done
		<-counted
		t.Fatal("Len waited on an in-flight observe")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

// TestPixelsDoesNotWaitOnObserve: an observe reads its session's pixel
// count through Pixels, which must not wait behind another observe of
// the session that holds its lock, and reports ErrNotFound as Get does.
func TestPixelsDoesNotWaitOnObserve(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n := ds.Spec.History
	gs := &gateStore{Store: state.NewMemStore(), entered: make(chan string)}
	mg := NewManager(Config{Store: gs, Metrics: obs.NewRegistry()})
	sum := fitScene(t, mg, ds, opt)
	if _, err := mg.Pixels("s-missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Pixels of an unknown session: %v, want ErrNotFound", err)
	}

	gate := make(chan struct{})
	gs.mu.Lock()
	gs.gate = gate
	gs.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := mg.Observe(context.Background(), sum.ID, sceneDates(ds, n, n+1), 1)
		done <- err
	}()
	<-gs.entered // the observe now holds the session lock inside its persist

	type answer struct {
		m   int
		err error
	}
	got := make(chan answer, 1)
	go func() {
		m, err := mg.Pixels(sum.ID)
		got <- answer{m, err}
	}()
	var a answer
	select {
	case a = <-got:
	case <-time.After(5 * time.Second):
		close(gate)
		<-done
		<-got
		t.Fatal("Pixels waited on an in-flight observe")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a.err != nil || a.m != ds.Spec.M {
		t.Fatalf("Pixels = %d, %v; want %d", a.m, a.err, ds.Spec.M)
	}
}

// TestCloseSkipsSessionDeletedMeanwhile: a Close that listed a session
// before a Delete of it finished must not write it again once it gets
// the session's lock — a base saved after the delete would bring the
// session back on the next Restore.
func TestCloseSkipsSessionDeletedMeanwhile(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	ds, opt := testScene(t)
	gs := &gateStore{Store: state.NewMemStore(), entered: make(chan string, 2)}
	mg := NewManager(Config{Store: gs, Metrics: obs.NewRegistry()})
	a, b := fitScene(t, mg, ds, opt), fitScene(t, mg, ds, opt)

	gate := make(chan struct{})
	gs.mu.Lock()
	gs.gate = gate
	gs.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- mg.Close(ctx) }()
	// Close has listed both sessions and is inside the first one's save.
	kept, deleted := <-gs.entered, a.ID
	if kept == a.ID {
		deleted = b.ID
	}
	if err := mg.Delete(ctx, deleted); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-gs.entered:
		t.Fatalf("Close saved session %s after its delete (kept %s)", id, kept)
	default:
	}

	fresh := NewManager(Config{Store: gs.Store, Metrics: obs.NewRegistry()})
	if got, err := fresh.Restore(ctx); err != nil || got != 1 {
		t.Fatalf("restore: %d sessions, %v; want 1", got, err)
	}
	if _, err := fresh.Get(kept); err != nil {
		t.Fatalf("the session Close kept: %v", err)
	}
	if _, err := fresh.Get(deleted); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the deleted session came back: %v", err)
	}
}

// TestObserveErrors: the error contract the server maps to API codes.
func TestObserveErrors(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n, N, M := ds.Spec.History, ds.Spec.N, ds.Spec.M
	mg := NewManager(Config{Metrics: obs.NewRegistry()})
	ctx := context.Background()
	sum := fitScene(t, mg, ds, opt)

	if _, err := mg.Observe(ctx, "s-0000000000000000", sceneDates(ds, n, n+1), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: %v", err)
	}
	if _, err := mg.Observe(ctx, sum.ID, make([]float64, M-1), 1); err == nil {
		t.Fatal("short values accepted")
	}
	if _, err := mg.Observe(ctx, sum.ID, nil, 0); err == nil {
		t.Fatal("zero dates accepted")
	}
	over := make([]float64, (N-n+1)*M)
	if _, err := mg.Observe(ctx, sum.ID, over, N-n+1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("overflow observe: %v", err)
	}
	// The exhausted observe must have consumed nothing.
	info, err := mg.Get(sum.ID)
	if err != nil || info.NextDate != n {
		t.Fatalf("cursor moved on rejected observe: %+v %v", info, err)
	}
	if err := mg.Delete(ctx, sum.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Get(sum.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session still visible: %v", err)
	}
	if err := mg.Delete(ctx, sum.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// countingStore wraps a Store and counts its writes, Save and Append
// together.
type countingStore struct {
	state.Store
	mu    sync.Mutex
	saves int
}

func (c *countingStore) Save(ctx context.Context, id string, data []byte) error {
	c.mu.Lock()
	c.saves++
	c.mu.Unlock()
	return c.Store.Save(ctx, id, data)
}

func (c *countingStore) Append(ctx context.Context, id string, frame []byte) error {
	c.mu.Lock()
	c.saves++
	c.mu.Unlock()
	return c.Store.Append(ctx, id, frame)
}

func (c *countingStore) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}

// TestSnapshotCadence: SnapshotEvery batches persistence — the fit
// always persists, then one save per k observes, plus Close.
func TestSnapshotCadence(t *testing.T) {
	leakcheck.Check(t)
	ds, opt := testScene(t)
	n := ds.Spec.History
	cs := &countingStore{Store: state.NewMemStore()}
	mg := NewManager(Config{Store: cs, SnapshotEvery: 3, Metrics: obs.NewRegistry()})
	ctx := context.Background()

	sum := fitScene(t, mg, ds, opt)
	if cs.count() != 1 {
		t.Fatalf("fit persisted %d times", cs.count())
	}
	for d := 0; d < 5; d++ {
		if _, err := mg.Observe(ctx, sum.ID, sceneDates(ds, n+d, n+d+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if cs.count() != 2 {
		t.Fatalf("5 observes at cadence 3 persisted %d times, want 2", cs.count())
	}
	if err := mg.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if cs.count() != 3 {
		t.Fatalf("close persisted %d times total, want 3", cs.count())
	}
	// The Close snapshot carries the current cursor.
	data, err := cs.Load(ctx, sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := state.DecodeSession(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextDate != n+5 {
		t.Fatalf("persisted cursor %d, want %d", snap.NextDate, n+5)
	}
}
