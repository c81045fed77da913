package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	g := r.Gauge("test.gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	c.Add(-5) // counters never decrease
	if c.Value() != 8000 {
		t.Fatalf("counter decreased: %d", c.Value())
	}
	// Get-or-create returns the same instance.
	if r.Counter("test.counter") != c {
		t.Fatal("Counter not idempotent")
	}
}

// TestHistogramBucketsCumulative pins the `le` semantics of the
// exposition: every bucket counts observations <= its bound, so counts
// are non-decreasing and the +Inf bucket equals the total count.
func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
	bounds, cum := h.Cumulative()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("cumulative shape: %v %v", bounds, cum)
	}
	for i, want := range []int64{2, 3, 4, 5} {
		if cum[i] != want {
			t.Fatalf("cum[%d] = %d, want %d (all: %v)", i, cum[i], want, cum)
		}
	}
	snap := h.snapshot()
	buckets := snap["buckets"].(map[string]int64)
	want := map[string]int64{"le_1": 2, "le_10": 3, "le_100": 4, "le_inf": 5}
	for k, v := range want {
		if buckets[k] != v {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", k, buckets[k], v, buckets)
		}
	}
	if buckets["le_inf"] != h.Count() {
		t.Fatalf("le_inf %d != count %d", buckets["le_inf"], h.Count())
	}
}

func TestRegistryJSONHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("b.gauge").Set(-7)
	r.Histogram("c.hist", []float64{1}).Observe(2)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if got["a.count"].(float64) != 3 || got["b.gauge"].(float64) != -7 {
		t.Fatalf("snapshot %v", got)
	}
	hist := got["c.hist"].(map[string]any)
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 2 {
		t.Fatalf("histogram %v", hist)
	}
	// Output must be a single flat object (expvar shape): re-encode and
	// compare round trip.
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var again map[string]any
	if err := json.Unmarshal(buf.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRingBasic(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		root := NewSpan("detect")
		root.End()
		spans, _ := root.Records()
		r.Record(Trace{Endpoint: "detect", Code: 200 + i, Total: time.Duration(i), Spans: spans})
	}
	got := r.Recent()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	// Oldest first: codes 202, 203, 204.
	for i, tr := range got {
		if tr.Code != 202+i {
			t.Fatalf("ring order: got %d at %d", tr.Code, i)
		}
		if len(tr.Spans) != 1 || tr.Spans[0].Name != "detect" {
			t.Fatalf("spans lost: %+v", tr)
		}
	}
	// nil ring is a no-op recorder.
	var nilRing *TraceRing
	nilRing.Record(Trace{})
	if nilRing.Recent() != nil {
		t.Fatal("nil ring should return nil")
	}
}

// TestTraceRingWraparound sweeps every fill level across the `full`
// boundary and asserts Recent is always oldest-first with the right
// survivors — the off-by-one regression surface of a ring buffer.
func TestTraceRingWraparound(t *testing.T) {
	const depth = 4
	for total := 0; total <= 3*depth+1; total++ {
		r := NewTraceRing(depth)
		for i := 0; i < total; i++ {
			r.Record(Trace{Code: i})
		}
		got := r.Recent()
		wantLen := total
		if wantLen > depth {
			wantLen = depth
		}
		if len(got) != wantLen {
			t.Fatalf("after %d records: len = %d, want %d", total, len(got), wantLen)
		}
		first := total - wantLen
		for i, tr := range got {
			if tr.Code != first+i {
				t.Fatalf("after %d records: position %d = %d, want %d (oldest-first)",
					total, i, tr.Code, first+i)
			}
		}
	}
}

// TestTraceRingConcurrent hammers Record and Recent from many
// goroutines; run under -race this is the ring's data-race guard.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Trace{Endpoint: "detect", Code: w*1000 + i})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				traces := r.Recent()
				if len(traces) > 8 {
					panic("ring overflow")
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Recent(); len(got) != 8 {
		t.Fatalf("final len = %d, want 8", len(got))
	}
	if _, ok := r.Find("nope"); ok {
		t.Fatal("Find matched a missing id")
	}
}

func TestTraceRingFind(t *testing.T) {
	r := NewTraceRing(4)
	r.Record(Trace{RequestID: "a", Code: 1})
	r.Record(Trace{RequestID: "b", Code: 2})
	r.Record(Trace{RequestID: "a", Code: 3})
	tr, ok := r.Find("a")
	if !ok || tr.Code != 3 {
		t.Fatalf("Find(a) = %+v %v, want most recent (code 3)", tr, ok)
	}
	if _, ok := r.Find("z"); ok {
		t.Fatal("Find(z) should miss")
	}
}
