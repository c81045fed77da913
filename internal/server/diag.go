package server

import (
	"net/http"
	"strconv"
	"time"

	"bfast/internal/obs"
)

// Production diagnostics (DESIGN.md §7): the always-on layer that makes
// a degraded node explain itself. Four pieces, all wired here:
//
//   - tail-sampled trace persistence: every completed request trace is
//     offered to an obs.TailSampler; error/slow/head survivors land in
//     a rotated JSONL log under Diag.Dir and are readable — merged with
//     the in-memory ring — via /debug/bfast/traces;
//   - SLO burn rates: per-endpoint latency objectives sampled into
//     multi-window slo.* gauges, with exemplar trace IDs on the latency
//     histograms linking a bad bucket to a concrete trace;
//   - anomaly-triggered profile capture: a watcher over the burn-rate
//     and scheduler-imbalance gauges that writes CPU+heap profiles into
//     Diag.Dir/profiles when a breach sustains;
//   - the flight recorder: GET /debug/bfast/flight streams one tar.gz
//     with everything above plus config and runtime state.

// DiagConfig groups the production-diagnostics knobs.
type DiagConfig struct {
	// Dir is the diagnostics directory: tail-sampled traces persist to
	// Dir/traces*.jsonl, anomaly-captured profiles to Dir/profiles.
	// "" disables persistence and profile capture; the in-memory trace
	// ring, the SLO layer and the flight endpoint still work.
	Dir string
	// SlowThreshold is the tail sampler's latency rule: any trace at
	// least this slow is persisted (0 = obs.DefaultSlowThreshold;
	// negative disables the slow rule).
	SlowThreshold time.Duration
	// HeadEvery persists every N-th trace as a baseline sample
	// (0 = obs.DefaultHeadEvery; negative disables head sampling).
	HeadEvery int
	// MaxFileBytes caps one trace-log segment before rotation
	// (0 = obs.DefaultTraceFileBytes).
	MaxFileBytes int64
	// MaxFiles bounds retained trace-log segments
	// (0 = obs.DefaultTraceFiles).
	MaxFiles int
	// DisableProfiles turns the anomaly-triggered profile watcher off
	// even when Dir is set.
	DisableProfiles bool
}

// SLOConfig groups the latency-objective knobs. The zero value monitors
// every compute endpoint against DefaultSLOLatencyMs/DefaultSLOTarget.
type SLOConfig struct {
	// Disabled turns the burn-rate layer off entirely.
	Disabled bool
	// LatencyMs is the default objective threshold applied to every
	// compute endpoint (0 = DefaultSLOLatencyMs). It snaps to the
	// smallest latency-histogram bucket bound at or above it.
	LatencyMs float64
	// Target is the default required fast fraction in (0,1)
	// (0 = DefaultSLOTarget).
	Target float64
	// Objectives, when non-empty, replaces the default per-endpoint set
	// entirely.
	Objectives []obs.Objective
	// SampleEvery is the burn-rate sampling cadence
	// (0 = obs.DefaultSLOSampleEvery).
	SampleEvery time.Duration
}

// Default SLO knobs: 99% of compute requests within 500ms.
const (
	DefaultSLOLatencyMs = 500
	DefaultSLOTarget    = 0.99
)

// Profile-capture breach thresholds. A 5m burn rate of 10 (gauge value
// 10000 in milli-units) is the classic fast-burn page threshold — the
// error budget gone in hours, not days; an imbalance of 200% means the
// busiest scheduler worker carried 3× the mean.
const (
	profBurnMilli     = 10_000
	profImbalancePct  = 200
	defaultTraceLimit = 50
)

// sloEndpoints are the compute endpoints monitored by default — the
// ones whose latency is dominated by detection work rather than by
// transport.
var sloEndpoints = []string{"detect", "trace", "batch", "fit", "observe"}

// sloObjectives resolves Config.SLO into the concrete objective list.
func (c Config) sloObjectives() []obs.Objective {
	if len(c.SLO.Objectives) > 0 {
		return c.SLO.Objectives
	}
	latency := c.SLO.LatencyMs
	if latency <= 0 {
		latency = DefaultSLOLatencyMs
	}
	target := c.SLO.Target
	if target <= 0 || target >= 1 {
		target = DefaultSLOTarget
	}
	out := make([]obs.Objective, 0, len(sloEndpoints))
	for _, ep := range sloEndpoints {
		out = append(out, obs.Objective{Endpoint: ep, LatencyMs: latency, Target: target})
	}
	return out
}

// initDiagnostics builds and starts the diagnostics layer: the tail
// sampler (when Diag.Dir is set), the SLO monitor with its subsystem
// sampler hooks, and the profile-capture watcher. Called from New after
// the NRT manager exists (its gauges ride the SLO tick); failures are
// boot failures, like any other misconfiguration.
func (s *Server) initDiagnostics() error {
	cfg := s.cfg
	if cfg.Diag.Dir != "" {
		tail, err := obs.NewTailSampler(obs.TailConfig{
			Dir:           cfg.Diag.Dir,
			SlowThreshold: cfg.Diag.SlowThreshold,
			HeadEvery:     cfg.Diag.HeadEvery,
			MaxFileBytes:  cfg.Diag.MaxFileBytes,
			MaxFiles:      cfg.Diag.MaxFiles,
			Metrics:       cfg.Metrics,
		})
		if err != nil {
			return err
		}
		s.tail = tail
	}
	if !cfg.SLO.Disabled {
		s.slo = obs.NewSLOMonitor(cfg.Metrics, cfg.sloObjectives(), cfg.SLO.SampleEvery)
		// Subsystem freshness gauges tick on the SLO clock so the whole
		// diagnostic surface shares one sampling cadence.
		s.slo.AddSampler(s.nrtMgr.SampleAges)
		s.stopSLO = s.slo.Start()
	}
	if cfg.Diag.Dir != "" && !cfg.Diag.DisableProfiles {
		rules := []obs.WatchRule{
			{Gauge: "sched.loop.imbalance_last_pct", Min: profImbalancePct},
		}
		for _, o := range s.slo.Objectives() {
			rules = append(rules, obs.WatchRule{
				Gauge: "slo." + o.Endpoint + ".burn_rate_5m_milli", Min: profBurnMilli,
			})
		}
		prof, err := obs.NewProfCapture(obs.ProfConfig{
			Dir:      cfg.Diag.Dir,
			Rules:    rules,
			Registry: cfg.Metrics,
			Metrics:  cfg.Metrics,
		})
		if err != nil {
			return err
		}
		s.prof = prof
		s.stopProf = prof.Start()
	}
	return nil
}

// stopDiagnostics halts the background diagnostics loops and closes the
// trace log. Called from Shutdown after the listener has drained, so no
// in-flight request loses its tail-sample offer.
func (s *Server) stopDiagnostics() {
	if s.stopSLO != nil {
		s.stopSLO()
	}
	if s.stopProf != nil {
		s.stopProf()
	}
	_ = s.tail.Close()
}

// traceEntry is one /debug/bfast/traces result: the trace plus where it
// came from — "ring" (in-memory, survives nothing) or "disk" (a
// tail-sampled survivor, with the sampling reason that kept it).
type traceEntry struct {
	Source string `json:"source"`
	Reason string `json:"reason,omitempty"`
	obs.Trace
}

// handleTraces serves the recent span trees. Without parameters: the
// last 50 traces, merged from the in-memory ring and the persisted
// tail-sample log (ring wins on duplicates), oldest first. ?limit=
// overrides the count, ?since= (RFC3339) drops older traces, and
// ?request_id= returns that request's most recent trace (404 when it
// has rotated out everywhere).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("request_id"); id != "" {
		tr, ok := s.ring.Find(id)
		if ok {
			writeJSON(r.Context(), w, tr)
			return
		}
		// Not in the ring — it may still be a tail-sampled survivor.
		for _, rec := range s.tail.ReadBack(0, time.Time{}) {
			if rec.RequestID == id {
				writeJSON(r.Context(), w, rec.Trace)
				return
			}
		}
		writeError(w, errf(http.StatusNotFound, CodeNotFound,
			"no trace for request_id %q (rotated out or never traced)", id))
		return
	}
	limit := defaultTraceLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, errf(http.StatusBadRequest, CodeInvalidArgument,
				"limit must be a positive integer, got %q", v))
			return
		}
		limit = n
	}
	var since time.Time
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeError(w, errf(http.StatusBadRequest, CodeInvalidArgument,
				"since must be RFC3339: %v", err))
			return
		}
		since = t
	}
	writeJSON(r.Context(), w, map[string]any{"traces": s.mergedTraces(limit, since)})
}

// mergedTraces joins the in-memory ring with the persisted trace log:
// ring entries are authoritative for requests present in both (same
// trace, fresher context), disk entries fill in what the ring has
// already rotated out. Result is oldest first, capped to limit.
func (s *Server) mergedTraces(limit int, since time.Time) []traceEntry {
	var out []traceEntry
	inRing := make(map[string]bool)
	for _, tr := range s.ring.Recent() {
		if !since.IsZero() && tr.Start.Before(since) {
			continue
		}
		out = append(out, traceEntry{Source: "ring", Trace: tr})
		inRing[tr.RequestID] = true
	}
	for _, rec := range s.tail.ReadBack(limit, since) {
		if rec.RequestID != "" && inRing[rec.RequestID] {
			continue
		}
		out = append(out, traceEntry{Source: "disk", Reason: rec.Reason, Trace: rec.Trace})
	}
	// Oldest first across both sources, like the ring's own order.
	sortTraceEntries(out)
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

func sortTraceEntries(entries []traceEntry) {
	// Insertion sort, matching the repo's other small-slice sorts; both
	// inputs are already nearly sorted by start time.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Start.Before(entries[j-1].Start); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

// handleFlight streams the flight-recorder bundle: one tar.gz holding
// the metrics snapshot (JSON + Prometheus), recent and persisted
// traces, the resolved config, runtime state, the NRT session summary,
// the SLO objectives and the latest captured profiles. Assembled from
// live state at request time — the endpoint an operator hits first when
// paged, before deciding what to look at.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required"))
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="bfast-flight.tar.gz"`)
	err := obs.WriteFlight(w, obs.FlightSources{
		Registry: s.cfg.Metrics,
		Ring:     s.ring,
		Tail:     s.tail,
		Config:   s.resolvedConfig(),
		Sections: map[string]any{
			"nrt_sessions":   s.nrtMgr.List(),
			"slo_objectives": s.slo.Objectives(),
		},
		Files: obs.ProfileFiles(s.prof.ProfilesDir()),
	})
	if err != nil {
		// Headers (and likely part of the archive) are gone; the client
		// sees a truncated bundle. Log and move on.
		s.cfg.Logger.Error("flight bundle aborted", "err", err)
	}
}

// resolvedConfig is the defaults-applied configuration as bundled in
// config.json — the plain-data view of Config (the struct itself drags
// a logger and a registry along, which JSON cannot say anything useful
// about). Every other field has a key: the snake-cased field name, with
// an _ns suffix on durations (pinned by TestResolvedConfigCoversConfig).
func (s *Server) resolvedConfig() map[string]any {
	c := s.cfg
	return map[string]any{
		"max_body_bytes":          c.MaxBodyBytes,
		"max_batch_pixels":        c.MaxBatchPixels,
		"max_series_len":          c.MaxSeriesLen,
		"max_concurrent":          c.MaxConcurrent,
		"workers":                 c.Workers,
		"trace_depth":             c.TraceDepth,
		"disable_debug":           c.DisableDebug,
		"retry_after_seconds":     c.RetryAfterSeconds,
		"enable_pprof":            c.EnablePprof,
		"sample_runtime_every_ns": c.SampleRuntimeEvery,
		"nrt": map[string]any{
			"state_dir":      c.NRT.StateDir,
			"snapshot_every": c.NRT.SnapshotEvery,
			"max_sessions":   c.NRT.MaxSessions,
			"max_capacity":   c.NRT.MaxCapacity,
		},
		"diag": map[string]any{
			"dir":               c.Diag.Dir,
			"slow_threshold_ns": c.Diag.SlowThreshold,
			"head_every":        c.Diag.HeadEvery,
			"max_file_bytes":    c.Diag.MaxFileBytes,
			"max_files":         c.Diag.MaxFiles,
			"disable_profiles":  c.Diag.DisableProfiles,
		},
		"slo": map[string]any{
			"disabled":        c.SLO.Disabled,
			"latency_ms":      c.SLO.LatencyMs,
			"target":          c.SLO.Target,
			"objectives":      s.slo.Objectives(),
			"sample_every_ns": c.SLO.SampleEvery,
		},
	}
}
