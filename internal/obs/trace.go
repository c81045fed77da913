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

// TraceRing is a bounded, concurrency-safe ring of recent request
// traces. The zero value is not usable; construct with NewTraceRing.
// A nil *TraceRing is a valid no-op recorder, so tracing stays optional.
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

// Record stores one trace, evicting the oldest when full. Safe on a nil
// receiver (drops the trace).
func (r *TraceRing) Record(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Recent returns the stored traces, oldest first. Safe on a nil receiver
// (returns nil).
func (r *TraceRing) Recent() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Trace, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Trace, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Find returns the most recent trace with the given request id, or
// false. Safe on a nil receiver.
func (r *TraceRing) Find(requestID string) (Trace, bool) {
	traces := r.Recent()
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].RequestID == requestID {
			return traces[i], true
		}
	}
	return Trace{}, false
}
