// Package nrt is the stateful near-real-time serving subsystem: fit a
// scene's per-pixel monitor records once, then fold each new acquisition
// date across the whole scene in one batched scheduler-driven pass.
//
// The offline path (core.DetectBatch) reprocesses the full series every
// time a new date arrives — O(n·K²) per pixel per date, almost all of it
// redundant recomputation of an unchanged history fit. The streaming
// update (core.MonitorState.Push) is O(K), but serving it requires the
// fitted state to live somewhere between requests. The Manager here owns
// that state: a session per scene keeps its state.SessionSnapshot
// resident — one core.MonitorState record per pixel, advanced in
// lockstep under one session-level next-date cursor — plus one design
// matrix. The resident records are the base snapshot: a fit writes them
// as they are, and each later persist appends only the inputs of the
// dates pushed since, as one journal frame, until the journal holds as
// many bytes as the base and the next persist writes a fresh base.
// Restoring adopts the decoded base records after a consistency check
// and replays the journal through the same advance step the observes
// ran, so a restarted server resumes bit-identically to one that never
// stopped (internal/state's codec round-trips every float64 bit).
//
// Sessions are deliberately dumb about time: a "date" is the next index
// in the designed series, exactly as in the offline API. Feeding dates
// in acquisition order is the caller's contract, the same contract the
// offline series layout already imposes.
package nrt

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"bfast/internal/core"
	"bfast/internal/obs"
	"bfast/internal/sched"
	"bfast/internal/series"
	"bfast/internal/state"
)

// Errors the server maps onto structured API codes.
var (
	// ErrNotFound reports an unknown session ID.
	ErrNotFound = errors.New("nrt: session not found")
	// ErrExhausted reports an observe past the session's designed
	// capacity; the session consumed nothing.
	ErrExhausted = errors.New("nrt: session exhausted")
	// ErrPersist reports a store failure while persisting a session. A
	// fit whose base could not be saved registers no session; an observe
	// whose persist failed drops the live session, which the store's
	// base and journal from before that call let Restore resume; a
	// delete whose store delete failed keeps the session live.
	ErrPersist = errors.New("nrt: persisting session failed")
)

// Config configures a Manager. The zero value works: sessions in
// memory only, default registry, snapshot after every observe. The per-pixel
// fan-outs run on sched.Shared().
type Config struct {
	// Store persists session snapshots. nil keeps sessions in memory
	// only: nothing is persisted (nrt.snapshots.saved stays 0 and a
	// session's snapshot age counts from its fit), and SnapshotNow,
	// Close and Restore do nothing.
	Store state.Store
	// Metrics receives nrt.* metrics; nil = obs.Default().
	Metrics *obs.Registry
	// SnapshotEvery persists a session after every k-th observe call
	// (fits always persist). 0 means 1 (every observe); negative
	// disables automatic snapshots — SnapshotNow/Close still persist.
	// An observe's persist appends a journal frame; fits, SnapshotNow
	// and Close write a full base.
	SnapshotEvery int
	// CacheSize is ignored.
	//
	// Deprecated: fits are not cached. The field remains only because
	// the benchmark harness (bench/) still sets it, and goes once that
	// harness no longer does.
	CacheSize int
}

// session is one fitted scene: its durable state kept resident (one
// record per pixel; Options canonical, Lambda resolved) and the design
// matrix every record is pushed against. Its mutex serializes observes
// and snapshots; distinct sessions proceed concurrently.
type session struct {
	mu sync.Mutex
	state.SessionSnapshot
	x         *series.DesignMatrix
	sinceSnap int // observe calls since the last persist
	// pending holds the date-major values pushed since the last persist
	// (kept only under an automatic cadence), frame the buffer they are
	// encoded into. baseBytes is the size of the last base written and
	// journalBytes what has been appended after it.
	pending      []float64
	frame        []byte
	baseBytes    int
	journalBytes int
	// lastObserve and lastSnap timestamp the session's most recent
	// observe pass (fit counts) and persisted snapshot — the raw
	// material of the observe-lag and snapshot-age diagnostics gauges.
	lastObserve time.Time
	lastSnap    time.Time
	// dropped is set, under mu, when the session leaves the live set
	// (dropLocked): deleted, or left ahead of or inconsistent with what
	// the store holds. A caller that fetched it before must not write it
	// (goneLocked).
	dropped bool
}

// goneLocked reports ErrNotFound if the session was dropped while the
// caller waited for its lock, which the caller holds: writing a deleted
// session would bring it back on the next Restore, and a dropped one
// would overwrite the state Restore resumes from.
func (s *session) goneLocked() error {
	if s.dropped {
		return fmt.Errorf("%w: %s", ErrNotFound, s.ID)
	}
	return nil
}

// Manager owns the NRT sessions of one process.
type Manager struct {
	cfg   Config
	store state.Store

	mu       sync.Mutex
	sessions map[string]*session

	active      *obs.Gauge
	fits        *obs.Counter
	fitPixels   *obs.Counter
	observes    *obs.Counter
	obsDates    *obs.Counter
	obsPixels   *obs.Counter
	snapsSaved  *obs.Counter
	snapsLoaded *obs.Counter
	snapsFailed *obs.Counter
	obsAgeMax   *obs.Gauge
	snapAgeMax  *obs.Gauge
}

// NewManager builds a Manager from cfg, filling zero fields with the
// defaults documented on Config.
func NewManager(cfg Config) *Manager {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1
	}
	reg := cfg.Metrics
	return &Manager{
		cfg:      cfg,
		store:    cfg.Store,
		sessions: make(map[string]*session),

		active:      reg.Gauge("nrt.sessions.active"),
		fits:        reg.Counter("nrt.fits"),
		fitPixels:   reg.Counter("nrt.fit.pixels"),
		observes:    reg.Counter("nrt.observes"),
		obsDates:    reg.Counter("nrt.observe.dates"),
		obsPixels:   reg.Counter("nrt.observe.pixels"),
		snapsSaved:  reg.Counter("nrt.snapshots.saved"),
		snapsLoaded: reg.Counter("nrt.snapshots.loaded"),
		snapsFailed: reg.Counter("nrt.snapshots.failed"),
		obsAgeMax:   reg.Gauge("nrt.observe.age_ms_max"),
		snapAgeMax:  reg.Gauge("nrt.snapshot.age_ms_max"),
	}
}

// --- fit ------------------------------------------------------------------

// FitRequest describes one scene to fit.
type FitRequest struct {
	// Options is the detection option set; History is the history length.
	Options core.Options
	// Pixels is M, the scene size.
	Pixels int
	// History is the M×History row-per-pixel flat history matrix
	// (NaN = missing).
	History []float64
	// Capacity is the designed series length N: History plus the maximum
	// number of monitoring dates the session will ever consume. Must
	// exceed Options.History.
	Capacity int
}

// FitSummary reports the outcome of a fit.
type FitSummary struct {
	ID       string `json:"session"`
	Pixels   int    `json:"pixels"`
	OK       int    `json:"ok"`
	Failed   int    `json:"failed"`
	History  int    `json:"history"`
	Capacity int    `json:"capacity"`
	NextDate int    `json:"next_date"`
}

// CheckCapacity reports whether a session designed for capacity dates
// leaves a monitoring period after a history of history dates.
func CheckCapacity(capacity, history int) error {
	if capacity <= history {
		return fmt.Errorf("nrt: capacity %d must exceed history %d", capacity, history)
	}
	return nil
}

// Fit fits a scene's per-pixel monitor records in one core.FitMonitors
// call over req.History and registers a new session. Per-pixel fit failures are not errors: they become terminal
// pixel statuses in every verdict, mirroring the offline per-pixel
// Status semantics. Errors are reserved for invalid requests and store
// failures.
func (mg *Manager) Fit(ctx context.Context, req FitRequest) (FitSummary, error) {
	ctx, span := obs.StartSpan(ctx, "nrt.fit")
	defer span.End()

	opt, err := req.Options.Canonical()
	if err != nil {
		return FitSummary{}, fmt.Errorf("nrt: %w", err)
	}
	if err := CheckCapacity(req.Capacity, opt.History); err != nil {
		return FitSummary{}, err
	}
	if err := opt.Validate(req.Capacity); err != nil {
		return FitSummary{}, fmt.Errorf("nrt: %w", err)
	}
	m := req.Pixels
	if m <= 0 {
		return FitSummary{}, fmt.Errorf("nrt: pixel count %d must be positive", m)
	}
	if len(req.History) != m*opt.History {
		return FitSummary{}, fmt.Errorf("nrt: history has %d values, %d pixels × %d dates need %d",
			len(req.History), m, opt.History, m*opt.History)
	}
	x, err := core.DesignFor(opt, req.Capacity)
	if err != nil {
		return FitSummary{}, fmt.Errorf("nrt: %w", err)
	}
	recs, status, err := core.FitMonitors(ctx, &core.Batch{M: m, N: opt.History, Y: req.History}, x, opt, core.BatchConfig{})
	if err != nil {
		return FitSummary{}, err
	}

	s := &session{
		SessionSnapshot: state.SessionSnapshot{
			History: opt.History, Capacity: req.Capacity, NextDate: opt.History,
			Options: opt, Lambda: opt.Lambda,
			Pixels: make([]state.PixelSnapshot, m),
		},
		x: x,
		// A fresh session's observe lag is measured from its fit.
		lastObserve: time.Now(),
	}
	ok := 0
	for i := range s.Pixels {
		s.Pixels[i] = state.PixelSnapshot{Status: status[i], MonitorState: recs[i]}
		if status[i] == core.StatusOK {
			ok++
		}
	}

	id, err := mg.register(s)
	if err != nil {
		return FitSummary{}, err
	}
	// Persist immediately: a restart between fit and first observe must
	// not lose the session.
	s.mu.Lock()
	perr := s.goneLocked()
	if perr == nil {
		if perr = mg.persistLocked(ctx, s, true); perr != nil {
			mg.dropLocked(s)
		}
	}
	s.mu.Unlock()
	if perr != nil {
		return FitSummary{}, perr
	}

	mg.fits.Inc()
	mg.fitPixels.Add(int64(m))
	span.SetAttr("pixels", int64(m))
	return FitSummary{
		ID: id, Pixels: m, OK: ok, Failed: m - ok,
		History: opt.History, Capacity: req.Capacity, NextDate: opt.History,
	}, nil
}

// register assigns a fresh ID and publishes the session.
func (mg *Manager) register(s *session) (string, error) {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	for tries := 0; tries < 16; tries++ {
		id, err := newID()
		if err != nil {
			return "", err
		}
		if _, taken := mg.sessions[id]; taken {
			continue
		}
		s.ID = id
		mg.sessions[id] = s
		mg.active.Set(int64(len(mg.sessions)))
		return id, nil
	}
	return "", errors.New("nrt: could not allocate a session id")
}

// dropLocked removes the session from the live set and marks it
// dropped; the caller holds s.mu.
func (mg *Manager) dropLocked(s *session) {
	s.dropped = true
	mg.mu.Lock()
	delete(mg.sessions, s.ID)
	mg.active.Set(int64(len(mg.sessions)))
	mg.mu.Unlock()
}

// newID returns a fresh CheckID-conformant session identifier.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("nrt: %w", err)
	}
	return fmt.Sprintf("s-%x", b), nil
}

// --- observe --------------------------------------------------------------

// Verdict is one pixel's standing after an observe.
type Verdict struct {
	// Status is StatusOK for a monitored pixel, else the terminal fit
	// status. A StatusOK pixel with ValidMon 0 corresponds to the offline
	// StatusNoMonitoringData.
	Status core.Status
	// Break reports whether a break has been flagged (sticky).
	Break bool
	// BreakOffset is the monitoring offset of the first break, or -1.
	BreakOffset int
	// Process is the process value after the latest date (NaN when that
	// observation was missing or the pixel is not monitored).
	Process float64
	// Mean is the running mean of the process — the change magnitude.
	Mean float64
	// ValidMon is the number of valid monitoring observations so far.
	ValidMon int
}

// ObserveResult reports one observe pass over a scene.
type ObserveResult struct {
	ID        string
	Dates     int // dates consumed by this call
	NextDate  int // cursor after this call
	Remaining int // dates of capacity left
	Breaks    int // pixels currently flagged
	Verdicts  []Verdict
	// buf is the pooled slice Verdicts is cut from.
	buf *[]Verdict
}

// verdictPool holds the verdict slices of released observes, so that a
// stream of observes stops allocating 48 B a pixel per call.
var verdictPool sync.Pool // of *[]Verdict

// Release hands r's verdicts back for a later observe to reuse; after
// it, r.Verdicts is nil and no copy of it may be read. Calling it is
// optional: an unreleased result is left to the garbage collector.
func (r *ObserveResult) Release() {
	if r.buf != nil {
		verdictPool.Put(r.buf)
	}
	r.buf, r.Verdicts = nil, nil
}

// Observe folds `dates` new acquisition dates across the scene in one
// scheduler-driven pass. values is date-major: values[d*M+i] is pixel
// i's observation on the d-th new date (NaN = missing). Observes on one
// session are serialized; the per-pixel work inside each call fans out
// over the pool, pushing each resident record in place and writing its
// verdict in the same pass.
func (mg *Manager) Observe(ctx context.Context, id string, values []float64, dates int) (ObserveResult, error) {
	ctx, span := obs.StartSpan(ctx, "nrt.observe")
	defer span.End()

	s, err := mg.get(id)
	if err != nil {
		return ObserveResult{}, err
	}
	m := len(s.Pixels)
	if dates <= 0 {
		return ObserveResult{}, fmt.Errorf("nrt: dates %d must be positive", dates)
	}
	if len(values) != dates*m {
		return ObserveResult{}, fmt.Errorf("nrt: %d values, %d dates × %d pixels need %d",
			len(values), dates, m, dates*m)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.goneLocked(); err != nil {
		return ObserveResult{}, err
	}
	if s.NextDate+dates > s.Capacity {
		return ObserveResult{}, fmt.Errorf("%w: %d dates requested, %d of %d remaining",
			ErrExhausted, dates, s.Capacity-s.NextDate, s.Capacity-s.History)
	}
	buf, _ := verdictPool.Get().(*[]Verdict)
	if buf == nil || cap(*buf) < m {
		buf = new([]Verdict)
		*buf = make([]Verdict, m)
	}
	verdicts := (*buf)[:m] // advance writes every pixel's verdict
	if err := s.advance(ctx, values, dates, verdicts); err != nil {
		// A cancelled pass leaves records at mixed dates; the session is
		// no longer internally consistent, so drop it rather than serve
		// skewed verdicts. The store (base and journal, from before this
		// pass) still allows recovery via Restore.
		mg.dropLocked(s)
		return ObserveResult{}, fmt.Errorf("nrt: observe pass aborted, session %s dropped (recoverable from its last snapshot): %w", s.ID, err)
	}
	s.sinceSnap++
	s.lastObserve = time.Now()
	if mg.cfg.SnapshotEvery > 0 {
		s.pending = append(s.pending, values...)
		if s.sinceSnap >= mg.cfg.SnapshotEvery {
			if err := mg.persistLocked(ctx, s, false); err != nil {
				// The session has advanced past what the store holds, so
				// a retry would push the same dates twice; fail closed.
				mg.dropLocked(s)
				return ObserveResult{}, err
			}
		}
	}

	mg.observes.Inc()
	mg.obsDates.Add(int64(dates))
	mg.obsPixels.Add(int64(dates * m))
	span.SetAttr("dates", int64(dates))
	span.SetAttr("pixels", int64(m))

	res := ObserveResult{
		ID: s.ID, Dates: dates, NextDate: s.NextDate,
		Remaining: s.Capacity - s.NextDate,
		Verdicts:  verdicts, buf: buf,
	}
	for i := range verdicts {
		if verdicts[i].Break {
			res.Breaks++
		}
	}
	return res, nil
}

// advance pushes dates new dates (values date-major: values[d*M+i]) into
// every live record of s in one scheduler pass and moves the cursor.
// With verdicts non-nil it also writes each pixel's verdict in the same
// pass. Observe and the journal replay of Restore both run it, so a
// replayed date is computed exactly as the observed one was. The caller
// holds s.mu or owns s alone; on error the records are at mixed dates
// and the cursor has not moved.
func (s *session) advance(ctx context.Context, values []float64, dates int, verdicts []Verdict) error {
	m := len(s.Pixels)
	err := sched.Shared().ForEachCtx(ctx, m, 0, sched.DefaultGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := &s.Pixels[i]
			if p.Status != core.StatusOK {
				if verdicts != nil {
					verdicts[i] = Verdict{Status: p.Status, BreakOffset: -1, Process: math.NaN()}
				}
				continue
			}
			var proc float64
			for d := 0; d < dates; d++ {
				proc, _ = p.Push(s.x, s.NextDate+d, values[d*m+i], s.Options, s.Lambda)
			}
			if verdicts != nil {
				verdicts[i] = Verdict{
					Status: core.StatusOK, Break: p.Break >= 0, BreakOffset: p.Break,
					Process: proc, Mean: p.Mean(), ValidMon: p.ValidMon,
				}
			}
		}
	})
	if err != nil {
		return err
	}
	s.NextDate += dates
	return nil
}

// --- introspection and lifecycle ------------------------------------------

// Info is a session's lightweight descriptor.
type Info struct {
	ID        string `json:"session"`
	Pixels    int    `json:"pixels"`
	OK        int    `json:"ok"`
	History   int    `json:"history"`
	Capacity  int    `json:"capacity"`
	NextDate  int    `json:"next_date"`
	Remaining int    `json:"remaining"`
	Breaks    int    `json:"breaks"`
	// ObserveAgeMs is how long ago the session last advanced (fit or
	// observe); SnapshotAgeMs is the staleness of its persisted snapshot,
	// -1 if nothing has been persisted yet. Both are diagnostics for the
	// "is this session being fed / is its durability current" questions.
	ObserveAgeMs  int64 `json:"observe_age_ms"`
	SnapshotAgeMs int64 `json:"snapshot_age_ms"`
}

func (mg *Manager) get(id string) (*session, error) {
	mg.mu.Lock()
	s, ok := mg.sessions[id]
	mg.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s, nil
}

// Get returns one session's descriptor.
func (mg *Manager) Get(id string) (Info, error) {
	s, err := mg.get(id)
	if err != nil {
		return Info{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return infoLocked(s), nil
}

// Pixels returns a session's pixel count, fixed at its fit. Unlike Get
// it neither walks the scene nor waits behind an in-flight observe.
func (mg *Manager) Pixels(id string) (int, error) {
	s, err := mg.get(id)
	if err != nil {
		return 0, err
	}
	return len(s.Pixels), nil
}

func infoLocked(s *session) Info {
	in := Info{
		ID: s.ID, Pixels: len(s.Pixels),
		History: s.History, Capacity: s.Capacity,
		NextDate: s.NextDate, Remaining: s.Capacity - s.NextDate,
		ObserveAgeMs: ageMs(s.lastObserve), SnapshotAgeMs: ageMs(s.lastSnap),
	}
	for i := range s.Pixels {
		p := &s.Pixels[i]
		if p.Status != core.StatusOK {
			continue
		}
		in.OK++
		if p.Break >= 0 {
			in.Breaks++
		}
	}
	return in
}

// ageMs reports how many milliseconds ago t was, or -1 for the zero
// time (the event has not happened).
func ageMs(t time.Time) int64 {
	if t.IsZero() {
		return -1
	}
	return time.Since(t).Milliseconds()
}

// SampleAges refreshes the manager-level max-age gauges
// (nrt.observe.age_ms_max, nrt.snapshot.age_ms_max) from the live
// sessions. Designed as an SLOMonitor sampler hook so the age gauges
// tick on the same clock as the burn-rate layer; both read 0 with no
// sessions (nothing can be stale).
func (mg *Manager) SampleAges() {
	mg.mu.Lock()
	ss := make([]*session, 0, len(mg.sessions))
	for _, s := range mg.sessions {
		ss = append(ss, s)
	}
	mg.mu.Unlock()
	var obsMax, snapMax int64
	for _, s := range ss {
		s.mu.Lock()
		o, sn := ageMs(s.lastObserve), ageMs(s.lastSnap)
		s.mu.Unlock()
		if o > obsMax {
			obsMax = o
		}
		if sn > snapMax {
			snapMax = sn
		}
	}
	mg.obsAgeMax.Set(obsMax)
	mg.snapAgeMax.Set(snapMax)
}

// Len returns the number of live sessions. It takes only the manager's
// lock, so it never waits behind an in-flight observe or snapshot.
func (mg *Manager) Len() int {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return len(mg.sessions)
}

// List returns every live session's descriptor, ordered by ID.
func (mg *Manager) List() []Info {
	mg.mu.Lock()
	ss := make([]*session, 0, len(mg.sessions))
	for _, s := range mg.sessions {
		ss = append(ss, s)
	}
	mg.mu.Unlock()
	infos := make([]Info, 0, len(ss))
	for _, s := range ss {
		s.mu.Lock()
		infos = append(infos, infoLocked(s))
		s.mu.Unlock()
	}
	sortInfos(infos)
	return infos
}

func sortInfos(infos []Info) {
	// Insertion sort: session counts are small and this avoids pulling
	// in sort for one call site with a struct comparator.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// Delete removes a session's stored snapshot and journal, then the live
// session. A store failure is ErrPersist and leaves the session live and
// listed, so a retry can finish the delete; dropping it first would let
// the next Restore bring back a session its client was told is gone.
// A deleted session is marked dropped, so no caller already holding it
// writes it to the store again.
func (mg *Manager) Delete(ctx context.Context, id string) error {
	s, err := mg.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.goneLocked(); err != nil {
		return err
	}
	if mg.store != nil {
		if err := mg.store.Delete(ctx, id); err != nil {
			return fmt.Errorf("%w: %w", ErrPersist, err)
		}
	}
	mg.dropLocked(s)
	return nil
}

// SnapshotNow writes a session's full base immediately, regardless of
// cadence; its journal restarts empty. Without a store it only checks
// that the session is live.
func (mg *Manager) SnapshotNow(ctx context.Context, id string) error {
	s, err := mg.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.goneLocked(); err != nil {
		return err
	}
	return mg.persistLocked(ctx, s, true)
}

// Close writes a full base for every live session (the SIGTERM path),
// skipping any dropped while it ran. The sessions stay usable; Close is
// idempotent.
func (mg *Manager) Close(ctx context.Context) error {
	if mg.store == nil {
		return nil
	}
	mg.mu.Lock()
	ss := make([]*session, 0, len(mg.sessions))
	for _, s := range mg.sessions {
		ss = append(ss, s)
	}
	mg.mu.Unlock()
	var firstErr error
	for _, s := range ss {
		s.mu.Lock()
		if s.goneLocked() != nil {
			s.mu.Unlock()
			continue
		}
		if err := mg.persistLocked(ctx, s, true); err != nil && firstErr == nil {
			firstErr = err
		}
		s.mu.Unlock()
	}
	return firstErr
}

// persistLocked makes the session's state durable; the caller holds
// s.mu. With base set, or when compaction calls for it, it encodes the
// resident records as they are and saves them as the new base, which
// empties the journal. Otherwise it appends the dates pushed since the
// last persist as one journal frame. Compaction has no knob: a persist
// writes a base once the journal holds as many bytes as the base (a
// restore then reads at most twice the base), or when the frame alone
// would be at least half the base — its append plus the base it brings
// forward would cost more than writing the base now. Without a store
// it only forgets the pushed dates.
func (mg *Manager) persistLocked(ctx context.Context, s *session, base bool) error {
	if mg.store == nil {
		s.pending = s.pending[:0]
		s.sinceSnap = 0
		return nil
	}
	_, span := obs.StartSpan(ctx, "nrt.snapshot")
	defer span.End()
	m := len(s.Pixels)
	base = base || s.journalBytes >= s.baseBytes
	if !base {
		s.frame = state.AppendFrame(s.frame[:0], s.NextDate-len(s.pending)/m, m, s.pending)
		base = 2*len(s.frame) >= s.baseBytes
	}
	if base {
		blob := state.EncodeSession(&s.SessionSnapshot)
		if err := mg.store.Save(ctx, s.ID, blob); err != nil {
			return fmt.Errorf("%w: %w", ErrPersist, err)
		}
		s.baseBytes, s.journalBytes = len(blob), 0
		span.SetAttr("bytes", int64(len(blob)))
		span.SetAttr("base", 1)
	} else {
		if err := mg.store.Append(ctx, s.ID, s.frame); err != nil {
			return fmt.Errorf("%w: %w", ErrPersist, err)
		}
		s.journalBytes += len(s.frame)
		span.SetAttr("bytes", int64(len(s.frame)))
		span.SetAttr("base", 0)
	}
	s.pending = s.pending[:0]
	s.sinceSnap = 0
	s.lastSnap = time.Now()
	mg.snapsSaved.Inc()
	return nil
}

// Restore loads every stored session and resumes it — the boot path. A
// session's base is decoded and adopted, then its journal is replayed
// through advance, and a session that replayed anything is saved as a
// fresh base so its journal restarts empty. A session whose base fails
// to decode or to pass resume's checks, or whose journal is malformed
// anywhere but in a torn final frame, is skipped (counted in
// nrt.snapshots.failed) so one corrupt file cannot block boot. Returns
// the number of sessions restored.
func (mg *Manager) Restore(ctx context.Context) (int, error) {
	if mg.store == nil {
		return 0, nil
	}
	ctx, span := obs.StartSpan(ctx, "nrt.restore")
	defer span.End()
	ids, err := mg.store.List(ctx)
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, id := range ids {
		if _, err := mg.get(id); err == nil {
			continue // live already; its state is newer than the store's
		}
		s, err := mg.restoreOne(ctx, id)
		if err != nil {
			mg.snapsFailed.Inc()
			continue
		}
		mg.mu.Lock()
		if _, taken := mg.sessions[id]; taken {
			mg.mu.Unlock()
			continue
		}
		mg.sessions[id] = s
		mg.active.Set(int64(len(mg.sessions)))
		mg.mu.Unlock()
		restored++
		mg.snapsLoaded.Inc()
	}
	span.SetAttr("restored", int64(restored))
	return restored, nil
}

// restoreOne rebuilds one session from its base and journal.
func (mg *Manager) restoreOne(ctx context.Context, id string) (*session, error) {
	data, err := mg.store.Load(ctx, id)
	if err != nil {
		return nil, err
	}
	snap, err := state.DecodeSession(data)
	if err != nil {
		return nil, err
	}
	if snap.ID != id {
		return nil, fmt.Errorf("nrt: snapshot stored as %s carries id %s", id, snap.ID)
	}
	s, err := resume(snap)
	if err != nil {
		return nil, err
	}
	s.baseBytes = len(data)
	journal, err := mg.store.Journal(ctx, id)
	if err != nil {
		return nil, err
	}
	if len(journal) == 0 {
		return s, nil
	}
	if err := s.replay(ctx, journal); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := mg.persistLocked(ctx, s, true); err != nil {
		return nil, err
	}
	return s, nil
}

// replay pushes the journal's frames that lie past the cursor through
// advance. Frames wholly behind the cursor — left by a crash between a
// base write and the journal's removal — are skipped, and a torn final
// frame ends the journal; any other gap, overlap or mismatch is an
// error.
func (s *session) replay(ctx context.Context, journal []byte) error {
	frames, _, err := state.DecodeJournal(journal)
	if err != nil {
		return err
	}
	for _, f := range frames {
		dates := f.Dates()
		switch {
		case f.Pixels != len(s.Pixels):
			return fmt.Errorf("nrt: journal frame has %d pixels, session %d", f.Pixels, len(s.Pixels))
		case f.Start+dates <= s.NextDate:
			continue
		case f.Start != s.NextDate:
			return fmt.Errorf("nrt: journal frame starts at date %d, cursor is at %d", f.Start, s.NextDate)
		case f.Start+dates > s.Capacity:
			return fmt.Errorf("nrt: journal frame ends at date %d, capacity is %d", f.Start+dates, s.Capacity)
		}
		if err := s.advance(ctx, f.Values, dates, nil); err != nil {
			return err
		}
	}
	return nil
}

// resume adopts a decoded snapshot as a session. The session-shared
// state is checked once — options valid for the capacity and agreeing
// with the stored history length, λ positive — then every live record
// against it (core.MonitorState.Check); one design matrix serves the
// whole scene.
func resume(snap *state.SessionSnapshot) (*session, error) {
	opt := snap.Options
	if opt.History != snap.History {
		return nil, fmt.Errorf("nrt: snapshot options have history %d, session %d", opt.History, snap.History)
	}
	if err := opt.Validate(snap.Capacity); err != nil {
		return nil, fmt.Errorf("nrt: snapshot options: %w", err)
	}
	if !(snap.Lambda > 0) {
		return nil, fmt.Errorf("nrt: snapshot has non-positive λ %v", snap.Lambda)
	}
	for i := range snap.Pixels {
		p := &snap.Pixels[i]
		if p.Status != core.StatusOK {
			continue
		}
		if err := p.Check(opt, snap.NextDate); err != nil {
			return nil, fmt.Errorf("nrt: pixel %d: %w", i, err)
		}
	}
	x, err := core.DesignFor(opt, snap.Capacity)
	if err != nil {
		return nil, fmt.Errorf("nrt: %w", err)
	}
	// A resumed session is as fresh as its snapshot: restart time.
	now := time.Now()
	return &session{SessionSnapshot: *snap, x: x, lastObserve: now, lastSnap: now}, nil
}
