package obs

import (
	"context"
	"sync"
	"time"
)

// A request's trace is one flat, append-only list of span records owned
// by its root span: the server opens a root per request, and every
// instrumented stage below it (pipeline stages, scheduler loops, kernel
// phases) appends a record via StartSpan naming its parent, so the
// trace keeps *where* time went, not just how much. The records have
// the fields of the benchmark harness's own spans.
//
// A context without a span makes StartSpan free (nil span, no
// allocation) and every Span method is safe on a nil receiver, so the
// hot paths carry the instrumentation unconditionally and pay one
// context lookup when tracing is off. The server traces every request
// while its trace ring is on, each into a pooled recorder
// (RequestTrace); TestTracedRequestAllocs in internal/server bounds
// what that costs a small request.

// SpanRecord is one span of a trace.
type SpanRecord struct {
	// ID numbers the trace's spans from 1 (the root) in start order;
	// Parent is the enclosing span's ID (0 for the root).
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the root's start.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// SpanAttr is one integer attribute of a span: a count, a size, a
// duration in nanoseconds or a 0/1 flag.
type SpanAttr struct {
	Span  int32  `json:"span"`
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// recorder holds one trace. Its first spans and attributes live in the
// fixed arrays, so a small trace allocates nothing beyond the recorder
// and its handles, and a pooled recorder (RequestTrace) is reused
// whole. gen numbers the
// recorder's uses: every handle carries the gen it was started under,
// and a handle from an earlier use writes and reads nothing.
type recorder struct {
	mu       sync.Mutex
	gen      uint64
	start    time.Time
	sealed   bool
	spans    []SpanRecord
	attrs    []SpanAttr
	spanBuf  [12]SpanRecord
	attrsBuf [24]SpanAttr
}

const openEnd = -1 // EndNs of a span that has not Ended yet

// Span is a handle to one record of a trace. Handles are heap objects
// of their own, never part of a pooled recorder, so a handle kept past
// its recorder's release still carries the old gen.
type Span struct {
	rec *recorder
	gen uint64
	id  int32
}

// spanCtxKey carries the active span through a context chain.
type spanCtxKey struct{}

// NewSpan starts the root span of a new trace. Its End seals the trace:
// spans still open are closed at the root's end, and a later StartSpan,
// End or SetAttr anywhere in the trace is dropped. Records then returns
// the finished trace.
func NewSpan(name string) *Span { return new(recorder).open(name) }

// open starts r's trace with its root span and returns the root's
// handle.
func (r *recorder) open(name string) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start = time.Now()
	r.sealed = false
	r.spans = append(r.spanBuf[:0], SpanRecord{ID: 1, Name: name, EndNs: openEnd})
	r.attrs = r.attrsBuf[:0]
	return &Span{rec: r, gen: r.gen, id: 1}
}

// recycle ends r's current use: every handle of it goes stale, and the
// lists fall back to the fixed arrays, so a recorder in the pool pins no
// overflow from a large trace.
func (r *recorder) recycle() {
	r.mu.Lock()
	r.gen++
	r.spans = r.spanBuf[:0]
	r.attrs = r.attrsBuf[:0]
	r.mu.Unlock()
}

// ContextWithSpan returns ctx carrying sp as the active span. A nil sp
// returns ctx unchanged (tracing stays off).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span, or nil when ctx carries none.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan begins a child of ctx's active span and returns a context
// carrying the child. When ctx has no active span, or its trace is
// already sealed or recycled, it returns ctx unchanged and a nil span —
// the disabled fast path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	now := time.Now()
	r := parent.rec
	r.mu.Lock()
	if r.sealed || parent.gen != r.gen {
		r.mu.Unlock()
		return ctx, nil
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, SpanRecord{ID: id, Parent: parent.id, Name: name, StartNs: int64(now.Sub(r.start)), EndNs: openEnd})
	r.mu.Unlock()
	sp := &Span{rec: r, gen: parent.gen, id: id}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// End records the span's end. Safe on a nil receiver; the first End
// wins, later calls are no-ops. The root's End seals the trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed || s.gen != r.gen {
		return
	}
	end := int64(now.Sub(r.start))
	if s.id == 1 {
		for i := range r.spans {
			if r.spans[i].EndNs == openEnd {
				r.spans[i].EndNs = end
			}
		}
		r.sealed = true
	} else if rec := &r.spans[s.id-1]; rec.EndNs == openEnd {
		rec.EndNs = end
	}
}

// SetAttr attaches an integer attribute to the span. Safe on a nil
// receiver; dropped once the trace is sealed or recycled.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if !r.sealed && s.gen == r.gen {
		r.attrs = append(r.attrs, SpanAttr{Span: s.id, Key: key, Value: v})
	}
	r.mu.Unlock()
}

// Records returns the sealed trace s belongs to: its spans in start
// order and its attributes in the order they were set, shared rather
// than copied (callers must not modify them; a pooled trace's lists are
// valid until its RequestTrace is released). Before the root has Ended
// it returns nil lists; so do a nil receiver and a handle whose
// recorder has been recycled.
func (s *Span) Records() ([]SpanRecord, []SpanAttr) {
	if s == nil {
		return nil, nil
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sealed || s.gen != r.gen {
		return nil, nil
	}
	return r.spans[:len(r.spans):len(r.spans)], r.attrs[:len(r.attrs):len(r.attrs)]
}
