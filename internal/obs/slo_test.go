package obs

import (
	"bytes"
	"strings"
	"testing"

	"bfast/internal/leakcheck"
)

// TestSLOMonitorBurnMath drives one deterministic breach through the
// monitor: a 99% objective at 500ms over the default buckets snaps to
// the 1024ms bound, and a tick where 10% of requests are slow burns the
// 1% budget at 10x — gauge value 10000 milli on both windows (at two
// samples the 5m and 1h windows are both "since baseline").
func TestSLOMonitorBurnMath(t *testing.T) {
	leakcheck.Check(t)
	reg := NewRegistry()
	hist := reg.Histogram("server.batch.latency_ms", nil)
	m := NewSLOMonitor(reg, []Objective{{Endpoint: "batch", LatencyMs: 500, Target: 0.99}}, 0)

	if v := reg.Gauge("slo.batch.objective_ms").Value(); v != 1024 {
		t.Fatalf("objective_ms = %d, want 1024 (500 snapped up to the bucket bound)", v)
	}

	m.Sample() // baseline
	if v := reg.Gauge("slo.batch.burn_rate_5m_milli").Value(); v != 0 {
		t.Fatalf("burn after baseline = %d, want 0", v)
	}
	for i := 0; i < 90; i++ {
		hist.Observe(10) // fast
	}
	for i := 0; i < 10; i++ {
		hist.Observe(5000) // past the 1024ms bound
	}
	m.Sample()
	if v := reg.Gauge("slo.batch.burn_rate_5m_milli").Value(); v != 10000 {
		t.Fatalf("burn_rate_5m = %d milli, want 10000 (10%% bad / 1%% budget)", v)
	}
	if v := reg.Gauge("slo.batch.burn_rate_1h_milli").Value(); v != 10000 {
		t.Fatalf("burn_rate_1h = %d milli, want 10000", v)
	}
}

// TestSLOMonitorAllGoodReadsZero: traffic entirely within the objective
// keeps the burn gauges at zero.
func TestSLOMonitorAllGoodReadsZero(t *testing.T) {
	leakcheck.Check(t)
	reg := NewRegistry()
	hist := reg.Histogram("server.detect.latency_ms", nil)
	m := NewSLOMonitor(reg, []Objective{{Endpoint: "detect", LatencyMs: 500, Target: 0.99}}, 0)
	m.Sample()
	for i := 0; i < 100; i++ {
		hist.Observe(5)
	}
	m.Sample()
	if v := reg.Gauge("slo.detect.burn_rate_5m_milli").Value(); v != 0 {
		t.Fatalf("all-good burn = %d, want 0", v)
	}
}

// TestSLOMonitorSkipsInvalidObjectives: empty endpoints and targets
// outside (0,1) are dropped at construction instead of publishing
// nonsense gauges.
func TestSLOMonitorSkipsInvalidObjectives(t *testing.T) {
	leakcheck.Check(t)
	m := NewSLOMonitor(NewRegistry(), []Objective{
		{Endpoint: "", LatencyMs: 500, Target: 0.99},
		{Endpoint: "batch", LatencyMs: 500, Target: 0},
		{Endpoint: "batch", LatencyMs: 500, Target: 1},
		{Endpoint: "batch", LatencyMs: 500, Target: 1.5},
		{Endpoint: "trace", LatencyMs: 500, Target: 0.9},
	}, 0)
	objs := m.Objectives()
	if len(objs) != 1 || objs[0].Endpoint != "trace" {
		t.Fatalf("Objectives = %+v, want only the valid trace objective", objs)
	}
}

// TestSLOMonitorSamplerHook: AddSampler functions run on every tick —
// the shared clock the NRT snapshot-age gauges ride on.
func TestSLOMonitorSamplerHook(t *testing.T) {
	leakcheck.Check(t)
	m := NewSLOMonitor(NewRegistry(), nil, 0)
	calls := 0
	m.AddSampler(func() { calls++ })
	m.AddSampler(nil) // ignored
	m.Sample()
	m.Sample()
	if calls != 2 {
		t.Fatalf("sampler hook ran %d times over 2 ticks, want 2", calls)
	}
}

// TestSLOMonitorNilSafety: a nil monitor is inert.
func TestSLOMonitorNilSafety(t *testing.T) {
	leakcheck.Check(t)
	var m *SLOMonitor
	m.Sample()
	m.AddSampler(func() {})
	if got := m.Objectives(); got != nil {
		t.Fatalf("nil Objectives = %v", got)
	}
	m.Start()() // stop immediately; must not panic
}

// TestObserveExemplar: the landing bucket records the trace ID, an
// empty ID degrades to a plain Observe, and later observations in the
// same bucket replace the exemplar.
func TestObserveExemplar(t *testing.T) {
	leakcheck.Check(t)
	h := NewHistogram(nil) // DefaultBuckets: 1,4,16,64,...
	h.ObserveExemplar(10, "req-a")
	ex := h.Exemplars()
	if ex[2] == nil || ex[2].TraceID != "req-a" || ex[2].Value != 10 {
		t.Fatalf("bucket le=16 exemplar = %+v, want req-a @ 10", ex[2])
	}
	h.ObserveExemplar(12, "req-b")
	if got := h.Exemplars()[2]; got.TraceID != "req-b" {
		t.Fatalf("exemplar not replaced: %+v", got)
	}
	h.ObserveExemplar(11, "")
	if got := h.Exemplars()[2]; got.TraceID != "req-b" {
		t.Fatalf("empty trace ID overwrote the exemplar: %+v", got)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (empty-ID observation still counts)", h.Count())
	}
}

// TestExemplarExpositions: the exemplar shows up in both metric
// expositions — OpenMetrics `# {trace_id=...}` bucket suffixes in the
// Prometheus text and an "exemplars" object in the JSON snapshot.
func TestExemplarExpositions(t *testing.T) {
	leakcheck.Check(t)
	reg := NewRegistry()
	reg.Histogram("server.batch.latency_ms", nil).ObserveExemplar(10, "req-xyz")

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `# {trace_id="req-xyz"} 10`) {
		t.Fatalf("prometheus text missing exemplar suffix:\n%s", prom.String())
	}

	var js bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"exemplars"`) || !strings.Contains(js.String(), `"req-xyz"`) {
		t.Fatalf("JSON snapshot missing exemplars:\n%s", js.String())
	}
}
