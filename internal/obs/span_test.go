package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSpanTree: each span is recorded with its parent, its attributes
// and its interval, and Records is empty until the root has Ended.
func TestSpanTree(t *testing.T) {
	root := NewSpan("request")
	ctx := ContextWithSpan(context.Background(), root)

	dctx, decode := StartSpan(ctx, "decode")
	if decode == nil {
		t.Fatal("StartSpan under a root must create a span")
	}
	if SpanFromContext(dctx) != decode {
		t.Fatal("child context must carry the child span")
	}
	decode.SetAttr("bytes", 123)
	decode.End()

	kctx, kernel := StartSpan(ctx, "kernel")
	_, inner := StartSpan(kctx, "invert")
	inner.SetAttr("tiles", 7)
	time.Sleep(time.Millisecond)
	inner.End()
	kernel.End()
	if spans, attrs := root.Records(); spans != nil || attrs != nil {
		t.Fatal("Records before the root's End must be empty")
	}
	root.End()

	spans, attrs := root.Records()
	want := []struct {
		name   string
		parent int32
	}{{"request", 0}, {"decode", 1}, {"kernel", 1}, {"invert", 3}}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		if s := spans[i]; s.ID != int32(i+1) || s.Name != w.name || s.Parent != w.parent {
			t.Fatalf("span %d = %+v, want %s under %d", i, s, w.name, w.parent)
		}
	}
	if attrs[0] != (SpanAttr{Span: 2, Key: "bytes", Value: 123}) || attrs[1] != (SpanAttr{Span: 4, Key: "tiles", Value: 7}) {
		t.Fatalf("attrs %+v", attrs)
	}
	inv := spans[3]
	if inv.EndNs-inv.StartNs < int64(time.Millisecond) {
		t.Fatalf("invert ran %dns, want >= 1ms", inv.EndNs-inv.StartNs)
	}
	if spans[0].StartNs != 0 || spans[0].EndNs < inv.EndNs {
		t.Fatalf("root %+v does not cover invert %+v", spans[0], inv)
	}
}

// TestSpanDisabledPath pins the no-op contract the overhead guard
// relies on: no span in the context means StartSpan returns a nil span,
// the context unchanged, and every method is a safe no-op.
func TestSpanDisabledPath(t *testing.T) {
	ctx := context.Background()
	got, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan without a root must return nil")
	}
	if got != ctx {
		t.Fatal("disabled StartSpan must not wrap the context")
	}
	sp.SetAttr("k", 1) // all nil-safe
	sp.End()
	if spans, attrs := sp.Records(); spans != nil || attrs != nil {
		t.Fatal("nil span must have no records")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("ContextWithSpan(nil) must be identity")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context must carry no span")
	}
	if n := testing.AllocsPerRun(100, func() { _, sp := StartSpan(ctx, "x"); sp.End() }); n != 0 {
		t.Fatalf("untraced StartSpan+End allocates %v times", n)
	}
}

// TestSpanConcurrentChildren starts and ends spans from several
// goroutines under one root — the scheduler-loop case where helpers of a
// stage share its context — and checks every record names its own
// parent. Run it under -race.
func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("loop")
	ctx := ContextWithSpan(context.Background(), root)
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, worker := StartSpan(ctx, fmt.Sprintf("worker%d", w))
			defer worker.End()
			for i := 0; i < iters; i++ {
				_, sp := StartSpan(wctx, fmt.Sprintf("unit%d", w))
				sp.SetAttr("i", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()

	spans, attrs := root.Records()
	if len(spans) != 1+workers*(1+iters) || len(attrs) != workers*iters {
		t.Fatalf("%d spans and %d attrs", len(spans), len(attrs))
	}
	workerOf := map[int32]string{}
	for _, s := range spans[1:] {
		if s.Parent == 1 {
			workerOf[s.ID] = s.Name[len("worker"):]
		}
	}
	for i, s := range spans {
		if s.ID != int32(i+1) || s.EndNs < s.StartNs {
			t.Fatalf("record %d = %+v", i, s)
		}
		if s.Parent > 1 && "unit"+workerOf[s.Parent] != s.Name {
			t.Fatalf("%s recorded under span %d (worker%s)", s.Name, s.Parent, workerOf[s.Parent])
		}
	}
	if len(workerOf) != workers {
		t.Fatalf("%d worker spans under the root, want %d", len(workerOf), workers)
	}
}

// TestSpanSealedByRootEnd: the root's End closes the spans still open at
// its end, and nothing done afterwards — End, SetAttr or a new span,
// from this goroutine or another — changes the recorded trace.
func TestSpanSealedByRootEnd(t *testing.T) {
	root := NewSpan("request")
	ctx := ContextWithSpan(context.Background(), root)
	lctx, late := StartSpan(ctx, "late")
	late.SetAttr("before", 1)
	root.End()

	spans, attrs := root.Records()
	if len(spans) != 2 || spans[1].EndNs != spans[0].EndNs {
		t.Fatalf("open span not closed at the root's end: %+v", spans)
	}
	before := append([]SpanRecord(nil), spans...)
	time.Sleep(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		late.SetAttr("after", 2)
		late.End()
		if _, sp := StartSpan(lctx, "orphan"); sp != nil {
			t.Error("StartSpan on a sealed trace returned a span")
		}
		root.End()
	}()
	wg.Wait()
	spans2, attrs2 := root.Records()
	if fmt.Sprint(spans2) != fmt.Sprint(before) || len(attrs2) != 1 || len(attrs) != 1 {
		t.Fatalf("sealed trace changed: %+v %+v -> %+v %+v", before, attrs, spans2, attrs2)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	root := NewSpan("root")
	_, sp := StartSpan(ContextWithSpan(context.Background(), root), "x")
	time.Sleep(time.Millisecond)
	sp.End()
	time.Sleep(2 * time.Millisecond)
	sp.End() // second End must not restretch the span
	root.End()
	spans, _ := root.Records()
	if x := spans[1]; x.EndNs-x.StartNs <= 0 || spans[0].EndNs-x.EndNs < int64(2*time.Millisecond) {
		t.Fatalf("second End moved the span: %+v within %+v", x, spans[0])
	}
}
