package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Tail-based trace sampling: the TraceRing keeps the last N traces
// in memory, which is the wrong retention policy for production
// diagnostics — the trace an operator needs after a page is exactly the
// slow or failed one, and under load it rotates out of the ring in
// seconds (and evaporates entirely on restart). The TailSampler looks
// at every *completed* trace — which is what makes the sampling
// tail-based: the decision is made after the outcome and latency are
// known, not at request admission — scores it, and appends survivors to
// a size-capped, rotated JSONL log under the diagnostics directory.
// Scoring keeps three classes:
//
//   - error:  the request failed (5xx, or any structured error code);
//   - slow:   total latency crossed TailConfig.SlowThreshold;
//   - head:   every HeadEvery-th trace regardless of outcome, so the
//     log always carries a baseline of normal requests to compare the
//     outliers against.
//
// The log is plain JSONL (one PersistedTrace per line) so it is
// greppable, streamable into the flight bundle, and robust to torn
// writes: read-back skips lines that fail to parse instead of
// abandoning the file.

// Default tail-sampling knobs.
const (
	// DefaultSlowThreshold is the latency above which a trace is kept.
	DefaultSlowThreshold = 500 * time.Millisecond
	// DefaultHeadEvery keeps every N-th trace as a baseline sample.
	DefaultHeadEvery = 100
	// DefaultTraceFileBytes caps one trace-log segment before rotation.
	DefaultTraceFileBytes = 4 << 20
	// DefaultTraceFiles caps how many rotated segments are retained
	// (including the active one).
	DefaultTraceFiles = 4
)

// traceLogName is the active trace-log segment under the diagnostics
// directory; rotated segments are traces-<seq>.jsonl.
const traceLogName = "traces.jsonl"

// TailConfig parameterizes a TailSampler. Only Dir is required.
type TailConfig struct {
	// Dir is the diagnostics directory the trace log lives in (created
	// if missing).
	Dir string
	// SlowThreshold keeps any trace at least this slow
	// (0 = DefaultSlowThreshold; negative disables the slow rule).
	SlowThreshold time.Duration
	// HeadEvery keeps every N-th trace as a baseline
	// (0 = DefaultHeadEvery; negative disables head sampling).
	HeadEvery int
	// MaxFileBytes rotates the active segment past this size
	// (0 = DefaultTraceFileBytes).
	MaxFileBytes int64
	// MaxFiles bounds retained segments, active included
	// (0 = DefaultTraceFiles).
	MaxFiles int
	// Metrics receives the diag.tail.* families (nil = Default()).
	Metrics *Registry
}

func (c TailConfig) withDefaults() TailConfig {
	if c.SlowThreshold == 0 {
		c.SlowThreshold = DefaultSlowThreshold
	}
	if c.HeadEvery == 0 {
		c.HeadEvery = DefaultHeadEvery
	}
	if c.MaxFileBytes <= 0 {
		c.MaxFileBytes = DefaultTraceFileBytes
	}
	if c.MaxFiles <= 0 {
		c.MaxFiles = DefaultTraceFiles
	}
	if c.Metrics == nil {
		c.Metrics = Default()
	}
	return c
}

// PersistedTrace is one sampled trace on disk: the trace plus why it
// survived and when it was written.
type PersistedTrace struct {
	// Reason is the sampling rule that kept the trace: "error", "slow"
	// or "head".
	Reason string `json:"reason"`
	// SampledUnixNs is the persistence time in Unix nanoseconds.
	SampledUnixNs int64 `json:"sampled_unix_ns"`
	Trace
}

// TailSampler scores completed traces and persists survivors. All
// methods are safe for concurrent use; a nil *TailSampler is a valid
// no-op (Offer drops, ReadBack returns nil), so persistence stays
// optional exactly like the TraceRing.
type TailSampler struct {
	cfg TailConfig

	mu   sync.Mutex
	f    *os.File
	size int64
	seq  int   // next rotated-segment sequence number
	seen int64 // traces offered, for head sampling

	offered   *Counter
	persisted *Counter
	errors    *Counter
	rotations *Counter
	corrupt   *Counter
}

// NewTailSampler opens (creating if needed) the trace log under
// cfg.Dir. The active segment is opened in append mode so a restarted
// server extends the log it left behind.
func NewTailSampler(cfg TailConfig) (*TailSampler, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: tail sampler needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: tail sampler: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(cfg.Dir, traceLogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: tail sampler: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: tail sampler: %w", err)
	}
	m := cfg.Metrics
	ts := &TailSampler{
		cfg: cfg, f: f, size: st.Size(),
		offered:   m.Counter("diag.tail.offered"),
		persisted: m.Counter("diag.tail.persisted"),
		errors:    m.Counter("diag.tail.errors"),
		rotations: m.Counter("diag.tail.rotations"),
		corrupt:   m.Counter("diag.tail.corrupt_skipped"),
	}
	// Resume rotation numbering past any segments a previous process
	// left behind, instead of overwriting them from zero.
	for _, seg := range ts.rotatedSegments() {
		if n := segmentSeq(seg); n >= ts.seq {
			ts.seq = n + 1
		}
	}
	return ts, nil
}

// Score classifies one completed trace: the sampling reason it would be
// kept under, or "" to drop it. Exported so tests and the benchmark
// harness can exercise the decision without a filesystem.
func (s *TailSampler) Score(t Trace) string {
	if s == nil {
		return ""
	}
	n := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.seen++
		return s.seen
	}()
	switch {
	case t.Code >= 500 || t.Err != "":
		return "error"
	case s.cfg.SlowThreshold > 0 && t.Total >= s.cfg.SlowThreshold:
		return "slow"
	case s.cfg.HeadEvery > 0 && (n-1)%int64(s.cfg.HeadEvery) == 0:
		return "head"
	}
	return ""
}

// Offer scores t and appends it to the trace log when it survives.
// Persistence failures are counted (diag.tail.errors), never surfaced —
// diagnostics must not fail requests.
func (s *TailSampler) Offer(t Trace) {
	if s == nil {
		return
	}
	s.offered.Inc()
	reason := s.Score(t)
	if reason == "" {
		return
	}
	rec := PersistedTrace{Reason: reason, SampledUnixNs: time.Now().UnixNano(), Trace: t}
	line, err := json.Marshal(rec)
	if err != nil {
		s.errors.Inc()
		return
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size+int64(len(line)) > s.cfg.MaxFileBytes && s.size > 0 {
		s.rotateLocked()
	}
	n, err := s.f.Write(line)
	s.size += int64(n)
	if err != nil {
		s.errors.Inc()
		return
	}
	s.persisted.Inc()
}

// rotateLocked renames the active segment to traces-<seq>.jsonl, prunes
// segments past the retention cap, and opens a fresh active file.
// Caller holds s.mu.
func (s *TailSampler) rotateLocked() {
	active := filepath.Join(s.cfg.Dir, traceLogName)
	s.f.Close()
	if err := os.Rename(active, filepath.Join(s.cfg.Dir, fmt.Sprintf("traces-%06d.jsonl", s.seq))); err != nil {
		s.errors.Inc()
	} else {
		s.seq++
		s.rotations.Inc()
	}
	// Retention: the active segment plus MaxFiles-1 rotated ones.
	segs := s.rotatedSegments()
	for len(segs) > s.cfg.MaxFiles-1 {
		if err := os.Remove(segs[0]); err != nil {
			s.errors.Inc()
		}
		segs = segs[1:]
	}
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Keep a sink so later Offers fail cleanly instead of panicking.
		s.errors.Inc()
		f, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	}
	s.f = f
	s.size = 0
}

// rotatedSegments lists rotated segment paths, oldest first (the
// sequence number is zero-padded so lexical order is age order).
func (s *TailSampler) rotatedSegments() []string {
	segs, _ := filepath.Glob(filepath.Join(s.cfg.Dir, "traces-*.jsonl"))
	sort.Strings(segs)
	return segs
}

// segmentSeq parses the sequence number out of a rotated segment path,
// or -1.
func segmentSeq(path string) int {
	var n int
	if _, err := fmt.Sscanf(filepath.Base(path), "traces-%d.jsonl", &n); err != nil {
		return -1
	}
	return n
}

// ReadBack returns up to limit persisted traces, oldest first, from the
// rotated segments and the active file. since (when non-zero) drops
// traces whose request started before it. Lines that fail to parse —
// torn writes, manual truncation, editor accidents — are skipped and
// counted (diag.tail.corrupt_skipped) rather than failing the read: a
// postmortem reader must get whatever is recoverable.
func (s *TailSampler) ReadBack(limit int, since time.Time) []PersistedTrace {
	if s == nil {
		return nil
	}
	if limit <= 0 {
		limit = 50
	}
	s.mu.Lock()
	files := append(s.rotatedSegments(), filepath.Join(s.cfg.Dir, traceLogName))
	s.mu.Unlock()
	var out []PersistedTrace
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec PersistedTrace
			if err := json.Unmarshal(line, &rec); err != nil || rec.Reason == "" {
				s.corrupt.Inc()
				continue
			}
			if !since.IsZero() && rec.Start.Before(since) {
				continue
			}
			out = append(out, rec)
		}
		f.Close()
	}
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Dir returns the diagnostics directory (flight bundling needs it).
func (s *TailSampler) Dir() string {
	if s == nil {
		return ""
	}
	return s.cfg.Dir
}

// Close flushes and closes the active segment. Offers after Close count
// as errors.
func (s *TailSampler) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
