package obs

import (
	"math"
	"sync"
	"time"
)

// SLO layer: the per-endpoint latency histograms say what the
// distribution looks like since boot; an operator paging on them wants
// a different question answered — "at the current rate, how fast are we
// burning the error budget?". The SLOMonitor samples each objective's
// histogram on a fixed tick, keeps a ring of cumulative (total, good)
// snapshots, and publishes multi-window burn rates as gauges:
//
//	slo.<endpoint>.burn_rate_5m_milli
//	slo.<endpoint>.burn_rate_1h_milli
//
// A burn rate of 1.0 (gauge value 1000) means the endpoint is spending
// its error budget exactly as fast as the objective allows; >1 means
// the budget runs out early. Two windows catch both shapes of trouble:
// the 5m window reacts to a fast burn (outage), the 1h window to a slow
// leak a short window would forgive between samples. This is the
// standard multi-window burn-rate alerting construction, computed
// in-process from the histograms the serving layer already maintains —
// no scrape infrastructure required to act on it (the profile-capture
// watcher consumes the same gauges).
//
// Because the registry's gauges are integers, burn rates are published
// in milli-units (×1000).

// Burn-rate windows. Expressed in sample ticks at runtime; the
// constants are the wall-clock targets.
const (
	burnShortWindow = 5 * time.Minute
	burnLongWindow  = time.Hour
	// DefaultSLOSampleEvery is the burn-rate sampling cadence.
	DefaultSLOSampleEvery = 10 * time.Second
)

// Objective is one endpoint's latency SLO: Target fraction of requests
// must complete within LatencyMs.
type Objective struct {
	// Endpoint is the serving-metric endpoint name ("batch", "detect",
	// ...); the monitored histogram is server.<Endpoint>.latency_ms.
	Endpoint string `json:"endpoint"`
	// LatencyMs is the objective latency threshold. It snaps to the
	// smallest histogram bucket bound at or above it (the histogram is
	// the measurement instrument; the effective bound is published as
	// slo.<endpoint>.objective_ms).
	LatencyMs float64 `json:"latency_ms"`
	// Target is the required fraction of fast requests in (0,1), e.g.
	// 0.99. The error budget is 1-Target.
	Target float64 `json:"target"`
}

// sloSeries is one objective's sampling state.
type sloSeries struct {
	obj      Objective
	hist     *Histogram
	bound    float64 // effective threshold: smallest bucket bound >= LatencyMs (+Inf = last)
	boundIdx int     // index into Cumulative() counts; len(bounds) means +Inf

	// ring of cumulative samples, one per tick, newest last.
	samples []sloSample

	burn5m   *Gauge
	burn1h   *Gauge
	objGauge *Gauge
}

type sloSample struct {
	total, good int64
}

// SLOMonitor samples latency objectives and publishes burn-rate gauges.
// Construct with NewSLOMonitor; drive with Start (background ticker) or
// Sample (one deterministic tick, used by tests).
type SLOMonitor struct {
	reg         *Registry
	sampleEvery time.Duration
	short, long int // window lengths in ticks

	mu       sync.Mutex
	series   []*sloSeries
	samplers []func()
	stopped  chan struct{}
	stopOnce sync.Once
	exited   chan struct{}
}

// NewSLOMonitor builds a monitor over the given objectives, publishing
// into reg (nil = Default()). sampleEvery <= 0 means
// DefaultSLOSampleEvery. Gauges are registered eagerly so the slo.*
// families are on /metrics from boot, reading 0 until the first breach.
func NewSLOMonitor(reg *Registry, objectives []Objective, sampleEvery time.Duration) *SLOMonitor {
	if reg == nil {
		reg = Default()
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultSLOSampleEvery
	}
	m := &SLOMonitor{
		reg:         reg,
		sampleEvery: sampleEvery,
		short:       windowTicks(burnShortWindow, sampleEvery),
		long:        windowTicks(burnLongWindow, sampleEvery),
		stopped:     make(chan struct{}),
		exited:      make(chan struct{}),
	}
	for _, obj := range objectives {
		if obj.Endpoint == "" || obj.Target <= 0 || obj.Target >= 1 {
			continue
		}
		h := reg.Histogram("server."+obj.Endpoint+".latency_ms", nil)
		bounds, _ := h.Cumulative()
		idx := bucketIndex(bounds, obj.LatencyMs)
		bound := obj.LatencyMs
		if idx < len(bounds) {
			bound = bounds[idx]
		}
		s := &sloSeries{
			obj: obj, hist: h, bound: bound, boundIdx: idx,
			burn5m:   reg.Gauge("slo." + obj.Endpoint + ".burn_rate_5m_milli"),
			burn1h:   reg.Gauge("slo." + obj.Endpoint + ".burn_rate_1h_milli"),
			objGauge: reg.Gauge("slo." + obj.Endpoint + ".objective_ms"),
		}
		s.objGauge.Set(int64(bound))
		m.series = append(m.series, s)
	}
	return m
}

func windowTicks(window, every time.Duration) int {
	n := int(window / every)
	if n < 1 {
		n = 1
	}
	return n
}

// Objectives returns the monitored objectives (debug/flight output).
func (m *SLOMonitor) Objectives() []Objective {
	if m == nil {
		return nil
	}
	out := make([]Objective, len(m.series))
	for i, s := range m.series {
		out[i] = s.obj
	}
	return out
}

// AddSampler registers a function run at the start of every tick —
// the hook subsystem gauges that need periodic refreshing (NRT
// snapshot ages) ride on, so the whole diagnostic surface shares one
// clock.
func (m *SLOMonitor) AddSampler(fn func()) {
	if m == nil || fn == nil {
		return
	}
	m.mu.Lock()
	m.samplers = append(m.samplers, fn)
	m.mu.Unlock()
}

// Sample runs one tick: refresh hooked gauges, snapshot every
// objective's histogram, publish burn rates. Exported so tests and
// smoke tooling can drive the monitor deterministically.
func (m *SLOMonitor) Sample() {
	if m == nil {
		return
	}
	m.mu.Lock()
	samplers := append([]func(){}, m.samplers...)
	m.mu.Unlock()
	for _, fn := range samplers {
		fn()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.series {
		_, cum := s.hist.Cumulative()
		total := cum[len(cum)-1]
		good := total
		if s.boundIdx < len(cum) {
			good = cum[s.boundIdx]
		}
		s.samples = append(s.samples, sloSample{total: total, good: good})
		if len(s.samples) > m.long+1 {
			s.samples = s.samples[len(s.samples)-(m.long+1):]
		}
		s.burn5m.Set(burnMilli(s.samples, m.short, s.obj.Target))
		s.burn1h.Set(burnMilli(s.samples, m.long, s.obj.Target))
	}
}

// burnMilli computes the burn rate over the last `window` ticks of the
// sample ring, in milli-units: (bad fraction over the window) divided
// by the error budget (1-target). Fewer samples than the window uses
// what exists — at boot the "5m window" is really "since boot", which
// is the conservative direction for alerting.
func burnMilli(samples []sloSample, window int, target float64) int64 {
	if len(samples) < 2 {
		return 0
	}
	oldest := len(samples) - 1 - window
	if oldest < 0 {
		oldest = 0
	}
	newest := samples[len(samples)-1]
	old := samples[oldest]
	dTotal := newest.total - old.total
	if dTotal <= 0 {
		return 0
	}
	dBad := (newest.total - newest.good) - (old.total - old.good)
	badFrac := float64(dBad) / float64(dTotal)
	budget := 1 - target
	// Round to the nearest milli so an exact 10x burn reads 10000, not
	// 9999 off a truncated 9999.999... .
	return int64(math.Round(badFrac / budget * 1000))
}

// Start launches the background sampling loop and returns an idempotent
// stop function that waits for the loop to exit.
func (m *SLOMonitor) Start() (stop func()) {
	if m == nil {
		return func() {}
	}
	go func() {
		defer close(m.exited)
		m.Sample() // establish the baseline sample immediately
		t := time.NewTicker(m.sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stopped:
				return
			case <-t.C:
				m.Sample()
			}
		}
	}()
	return func() {
		m.stopOnce.Do(func() { close(m.stopped) })
		<-m.exited
	}
}
