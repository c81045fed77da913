package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed node of a request's execution tree: the serving
// layer opens a root span per request, and every instrumented stage
// below it (pipeline stages, scheduler loops, kernel phases) attaches a
// child via StartSpan. Spans replace the old flat Trace.Phases list —
// the tree preserves *where* time went, not just how much, which is the
// difference between "detect took 80 ms" and "80 ms = 70 ms in the
// inversion sweep of which 60 ms sat in one scheduler loop".
//
// Tracing is opt-in per call chain: a context without a span makes
// StartSpan free (nil span, no allocation), and every Span method is
// safe on a nil receiver, so the kernel hot paths carry the
// instrumentation unconditionally and pay only a context lookup when
// tracing is off. The benchmark ledger's trace.overhead_pct row
// measures what tracing costs when it is on.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    map[string]any
	children []*Span
}

// spanCtxKey carries the active span through a context chain.
type spanCtxKey struct{}

// NewSpan starts a root span. The caller must End it and usually
// exports the finished tree with Node.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
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
// carrying the child. When ctx has no active span it returns ctx
// unchanged and a nil span — the disabled fast path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// End fixes the span's duration. Safe on a nil receiver; the first End
// wins, later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// SetAttr attaches a key/value attribute (v must be JSON-encodable).
// Safe on a nil receiver.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// Duration returns the span's duration (elapsed-so-far if not ended).
// Safe on a nil receiver (0).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanNode is the exported, JSON-encodable snapshot of a span subtree,
// the wire shape of /debug/bfast/traces.
type SpanNode struct {
	Name string `json:"name"`
	// StartNs is the span's absolute start time in Unix nanoseconds
	// (children's StartNs minus the root's gives the waterfall offset).
	StartNs int64 `json:"start_ns"`
	// DurNs is the span duration in nanoseconds.
	DurNs    int64          `json:"ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanNode     `json:"children,omitempty"`
}

// Node snapshots the span subtree. Spans still running are exported
// with their elapsed-so-far duration. Safe on a nil receiver (zero
// node).
func (s *Span) Node() SpanNode {
	if s == nil {
		return SpanNode{}
	}
	s.mu.Lock()
	n := SpanNode{Name: s.name, StartNs: s.start.UnixNano()}
	if s.ended {
		n.DurNs = int64(s.dur)
	} else {
		n.DurNs = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			n.Attrs[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	if len(children) > 0 {
		n.Children = make([]SpanNode, len(children))
		for i, c := range children {
			n.Children[i] = c.Node()
		}
	}
	return n
}

// Find returns the first node in the tree (pre-order) with the given
// name, or nil — a convenience for tests and trace consumers.
func (n *SpanNode) Find(name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for i := range n.Children {
		if hit := n.Children[i].Find(name); hit != nil {
			return hit
		}
	}
	return nil
}
