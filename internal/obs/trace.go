package obs

import (
	"sync"
	"time"
)

// Trace is the record of one served request: correlation id, endpoint,
// outcome, sizes, and the span records of where the time went (decode →
// detect → scheduler loops → kernel phases). The RequestID matches the
// X-Request-ID response header and the request_id field of the
// request's log lines, so logs, traces and metrics correlate.
type Trace struct {
	RequestID string    `json:"request_id,omitempty"`
	Start     time.Time `json:"start"`
	Endpoint  string    `json:"endpoint"`
	Code      int       `json:"code"`
	Err       string    `json:"err,omitempty"`
	// Session is the NRT session the request touched (/v1/fit sets the
	// session it opened, /v1/observe the one it advanced) — the join key
	// that stitches a fit trace to the observe traces that follow it.
	Session string        `json:"session,omitempty"`
	Bytes   int64         `json:"bytes"`
	Pixels  int           `json:"pixels,omitempty"`
	Total   time.Duration `json:"total_ns"`
	// Spans and Attrs are the request's sealed trace, as its root span's
	// Records returns them (nil when tracing was off for the request).
	Spans []SpanRecord `json:"spans,omitempty"`
	Attrs []SpanAttr   `json:"attrs,omitempty"`
}

// RequestTrace is the pooled state of one served request: its Trace
// and, when the request is traced, the recorder its spans append to.
// StartRequest takes one from the pool and Release puts it back, so a
// warm traced request allocates no recorder. Span handles and their
// context nodes stay per-span heap objects: a handle kept past Release
// carries the recorder's old generation, so its End, SetAttr,
// StartSpan and Records do nothing.
type RequestTrace struct {
	Trace
	root *Span
	rec  recorder
}

var requestPool = sync.Pool{New: func() any { return new(RequestTrace) }}

// StartRequest takes a RequestTrace from the pool. A non-empty root
// opens its trace under a root span of that name; "" leaves the request
// untraced (Root returns nil).
func StartRequest(root string) *RequestTrace {
	rt := requestPool.Get().(*RequestTrace)
	if root != "" {
		rt.root = rt.rec.open(root)
	}
	return rt
}

// Root returns the request's root span, or nil when it is untraced.
func (rt *RequestTrace) Root() *Span { return rt.root }

// Seal ends the root span and sets Spans and Attrs to its records. They
// alias the pooled recorder: a TraceRing copies them, a TailSampler
// marshals them before Offer returns, and nothing may keep them past
// Release.
func (rt *RequestTrace) Seal() {
	rt.root.End()
	rt.Spans, rt.Attrs = rt.root.Records()
}

// Release returns rt to the pool once everything that reads its Trace
// has returned. Every span handle of the request goes stale.
func (rt *RequestTrace) Release() {
	rt.rec.recycle()
	rt.Trace = Trace{}
	rt.root = nil
	requestPool.Put(rt)
}

// clone returns t with span and attribute lists of its own.
func (t Trace) clone() Trace {
	t.Spans = append([]SpanRecord(nil), t.Spans...)
	t.Attrs = append([]SpanAttr(nil), t.Attrs...)
	return t
}

// TraceRing is a bounded, concurrency-safe ring of recent request
// traces. The zero value is not usable; construct with NewTraceRing.
// A nil *TraceRing is a valid no-op recorder, so tracing stays optional.
// Each slot owns its span and attribute lists and reuses them when it
// is overwritten, so Record copies a trace in without allocating once
// the slots are warm, and Recent and Find hand out copies.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	full bool
}

// NewTraceRing returns a ring holding the last n traces (n <= 0 means 64).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = 64
	}
	return &TraceRing{buf: make([]Trace, n)}
}

// Record stores a copy of t, evicting the oldest trace when full; t's
// lists are not retained. Safe on a nil receiver (drops the trace).
func (r *TraceRing) Record(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	slot := &r.buf[r.next]
	spans, attrs := slot.Spans[:0], slot.Attrs[:0]
	*slot = t
	slot.Spans = append(spans, t.Spans...)
	slot.Attrs = append(attrs, t.Attrs...)
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Recent returns copies of the stored traces, oldest first. Safe on a
// nil receiver (returns nil).
func (r *TraceRing) Recent() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, 0, len(r.buf))
	if r.full {
		for _, t := range r.buf[r.next:] {
			out = append(out, t.clone())
		}
	}
	for _, t := range r.buf[:r.next] {
		out = append(out, t.clone())
	}
	return out
}

// Find returns a copy of the most recent trace with the given request
// id, or false. Safe on a nil receiver.
func (r *TraceRing) Find(requestID string) (Trace, bool) {
	traces := r.Recent()
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].RequestID == requestID {
			return traces[i], true
		}
	}
	return Trace{}, false
}
