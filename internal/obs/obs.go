// Package obs is the repository's observability spine: counters, gauges
// and histograms held in a process-local registry and rendered as
// expvar-compatible JSON (a single flat object, one entry per metric) or
// Prometheus text exposition for the server's /metrics endpoint; a
// context-propagated trace of span records per request (span.go) kept in a
// bounded ring of recent traces for /debug/bfast/traces; structured
// log/slog construction helpers (log.go); and a background runtime
// sampler publishing goroutine/heap/GC gauges (runtime.go).
//
// The package is deliberately dependency-free (stdlib only) and leaf in
// the import graph so the scheduler, the detection kernels and the HTTP
// layer can all publish into it without cycles. All metric types are
// safe for concurrent use and update via atomics — a counter Add on the
// kernel hot path is one atomic add, no locks, no allocation.
//
// Naming convention (documented in DESIGN.md §6): dotted lowercase
// paths, `<subsystem>.<name>[.<unit>]`, e.g. `sched.blocks.run`,
// `kernel.invert.ns`, `server.batch.latency_ms`.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored: counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 metric (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultBuckets are the histogram upper bounds used when none are
// given: a base-4 ladder wide enough for both request latencies in
// milliseconds and payload sizes in KiB.
var DefaultBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Histogram is a fixed-bucket cumulative histogram with sum and count.
// Buckets are upper bounds; observations above the last bound land in
// the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	count  atomic.Int64
	// sum is stored as math.Float64bits in a CAS loop.
	sum atomic.Uint64
	// ex holds the latest exemplar per bucket (len(bounds)+1, last =
	// +Inf), populated only through ObserveExemplar — see exemplar.go.
	ex []atomic.Pointer[Exemplar]
}

// NewHistogram builds a histogram with the given ascending upper bounds
// (nil means DefaultBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Cumulative returns the histogram's bounds and cumulative bucket
// counts (`le` semantics): cum[i] counts observations <= bounds[i], and
// the final extra entry is the +Inf bucket, equal to Count() modulo
// in-flight observations. Both expositions derive from this one
// transform so JSON and Prometheus can never disagree.
func (h *Histogram) Cumulative() (bounds []float64, cum []int64) {
	cum = make([]int64, len(h.bounds)+1)
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return h.bounds, cum
}

// snapshot renders the histogram as a JSON-encodable map. Buckets carry
// cumulative `le` counts — the Prometheus meaning of a bucket, which
// the per-bucket counts of the original exposition silently violated.
func (h *Histogram) snapshot() map[string]any {
	bounds, cum := h.Cumulative()
	buckets := make(map[string]int64, len(bounds)+1)
	for i, b := range bounds {
		buckets[fmt.Sprintf("le_%g", b)] = cum[i]
	}
	buckets["le_inf"] = cum[len(cum)-1]
	out := map[string]any{
		"count":   h.Count(),
		"sum":     h.Sum(),
		"buckets": buckets,
	}
	if ex := h.exemplarMap(); len(ex) > 0 {
		out["exemplars"] = ex
	}
	return out
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry or use Default.
type Registry struct {
	mu sync.Mutex
	m  map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]any)} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package-level helper
// publishes into.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. It
// panics if the name is already registered as a different metric type —
// a misconfiguration, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		c, ok := v.(*Counter)
		if !ok {
			panic("obs: " + name + " registered as a non-counter")
		}
		return c
	}
	c := &Counter{}
	r.m[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		g, ok := v.(*Gauge)
		if !ok {
			panic("obs: " + name + " registered as a non-gauge")
		}
		return g
	}
	g := &Gauge{}
	r.m[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds (nil = DefaultBuckets) on first use. Bounds are fixed at
// creation; later calls return the existing histogram regardless.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		h, ok := v.(*Histogram)
		if !ok {
			panic("obs: " + name + " registered as a non-histogram")
		}
		return h
	}
	h := NewHistogram(bounds)
	r.m[name] = h
	return h
}

// Snapshot returns a point-in-time copy of every metric, JSON-encodable:
// counters and gauges as int64, histograms as {count, sum, buckets}.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	vals := make(map[string]any, len(r.m))
	for name, v := range r.m {
		names = append(names, name)
		vals[name] = v
	}
	r.mu.Unlock()
	out := make(map[string]any, len(names))
	for _, name := range names {
		switch v := vals[name].(type) {
		case *Counter:
			out[name] = v.Value()
		case *Gauge:
			out[name] = v.Value()
		case *Histogram:
			out[name] = v.snapshot()
		}
	}
	return out
}

// WriteJSON writes the snapshot as one flat JSON object with sorted
// keys — the expvar wire shape (`{"name": value, ...}`).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		key, _ := json.Marshal(name)
		val, err := json.Marshal(snap[name])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s: %s", key, val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// Handler returns an http.Handler serving the registry snapshot — the
// /metrics endpoint. The default exposition is the flat JSON object;
// requests that ask for the Prometheus text format (Accept: text/plain
// or OpenMetrics, or ?format=prometheus) get WritePrometheus instead,
// so the same endpoint serves both dashboards and a stock Prometheus
// scraper.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if WantsPrometheus(req) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}
