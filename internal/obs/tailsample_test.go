package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bfast/internal/leakcheck"
)

// newTestSampler builds a sampler over a throwaway dir and registry.
func newTestSampler(t *testing.T, cfg TailConfig) (*TailSampler, *Registry) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	reg := NewRegistry()
	cfg.Metrics = reg
	s, err := NewTailSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, reg
}

// TestTailSamplerScore pins the three sampling classes and their
// precedence: error beats slow beats head, and a trace matching none is
// dropped.
func TestTailSamplerScore(t *testing.T) {
	leakcheck.Check(t)
	s, _ := newTestSampler(t, TailConfig{SlowThreshold: 100 * time.Millisecond, HeadEvery: 3})
	cases := []struct {
		tr   Trace
		want string
	}{
		{Trace{Code: 200, Total: time.Millisecond}, "head"}, // 1st offer: head baseline
		{Trace{Code: 503, Total: time.Millisecond}, "error"},
		{Trace{Code: 200, Err: "invalid_argument", Total: time.Millisecond}, "error"},
		{Trace{Code: 200, Total: 150 * time.Millisecond}, "slow"},
		{Trace{Code: 200, Total: time.Millisecond}, ""},     // 5th: not head (3|4th was), fast, ok
		{Trace{Code: 200, Total: time.Millisecond}, ""},     // 6th
		{Trace{Code: 200, Total: time.Millisecond}, "head"}, // 7th: (7-1)%3 == 0
	}
	for i, c := range cases {
		if got := s.Score(c.tr); got != c.want {
			t.Fatalf("case %d: Score = %q, want %q", i, got, c.want)
		}
	}

	// Negative knobs disable their rules.
	off, _ := newTestSampler(t, TailConfig{SlowThreshold: -1, HeadEvery: -1})
	if got := off.Score(Trace{Code: 200, Total: time.Hour}); got != "" {
		t.Fatalf("disabled rules: Score = %q, want drop", got)
	}
	if got := off.Score(Trace{Code: 500}); got != "error" {
		t.Fatalf("errors persist regardless of knobs: got %q", got)
	}
}

// TestTailSamplerPersistAndReadBack: survivors round-trip through the
// JSONL log with reason and order intact; non-survivors leave no line.
func TestTailSamplerPersistAndReadBack(t *testing.T) {
	leakcheck.Check(t)
	s, reg := newTestSampler(t, TailConfig{HeadEvery: -1})
	for i := 0; i < 5; i++ {
		s.Offer(Trace{RequestID: fmt.Sprintf("r%d", i), Code: 500, Start: time.Unix(int64(100+i), 0)})
	}
	s.Offer(Trace{RequestID: "fast", Code: 200, Total: time.Millisecond})

	got := s.ReadBack(0, time.Time{})
	if len(got) != 5 {
		t.Fatalf("ReadBack = %d records, want 5", len(got))
	}
	for i, rec := range got {
		if rec.Reason != "error" || rec.RequestID != fmt.Sprintf("r%d", i) {
			t.Fatalf("record %d = %+v, want error r%d (oldest first)", i, rec, i)
		}
		if rec.SampledUnixNs == 0 {
			t.Fatalf("record %d has no sampling timestamp", i)
		}
	}
	// since filters on the request's start time.
	if got := s.ReadBack(0, time.Unix(103, 0)); len(got) != 2 {
		t.Fatalf("since filter = %d records, want 2", len(got))
	}
	if v := reg.Counter("diag.tail.persisted").Value(); v != 5 {
		t.Fatalf("persisted counter = %d, want 5", v)
	}
	if v := reg.Counter("diag.tail.offered").Value(); v != 6 {
		t.Fatalf("offered counter = %d, want 6", v)
	}
}

// TestTailSamplerDefaultLimit: ReadBack(0, ...) caps at 50, newest kept.
func TestTailSamplerDefaultLimit(t *testing.T) {
	leakcheck.Check(t)
	s, _ := newTestSampler(t, TailConfig{HeadEvery: -1})
	for i := 0; i < 60; i++ {
		s.Offer(Trace{RequestID: fmt.Sprintf("r%d", i), Code: 500})
	}
	got := s.ReadBack(0, time.Time{})
	if len(got) != 50 {
		t.Fatalf("default limit: %d records, want 50", len(got))
	}
	if got[0].RequestID != "r10" || got[49].RequestID != "r59" {
		t.Fatalf("default limit kept [%s..%s], want the newest 50", got[0].RequestID, got[49].RequestID)
	}
}

// TestTailSamplerRotationAtSizeCap: the active segment rotates when the
// next line would cross MaxFileBytes, retention bounds total segments,
// and read-back still sees the retained records oldest first.
func TestTailSamplerRotationAtSizeCap(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s, reg := newTestSampler(t, TailConfig{Dir: dir, HeadEvery: -1, MaxFileBytes: 256, MaxFiles: 3})
	const total = 40
	for i := 0; i < total; i++ {
		s.Offer(Trace{RequestID: fmt.Sprintf("req-%03d", i), Code: 500})
	}
	if v := reg.Counter("diag.tail.rotations").Value(); v == 0 {
		t.Fatal("no rotations despite a 256-byte cap")
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "traces-*.jsonl"))
	if len(segs) > 2 { // MaxFiles=3 including the active file
		t.Fatalf("%d rotated segments retained, cap allows 2: %v", len(segs), segs)
	}
	if fi, err := os.Stat(filepath.Join(dir, traceLogName)); err != nil || fi.Size() > 256 {
		t.Fatalf("active segment: %v size %d, want <= 256", err, fi.Size())
	}
	got := s.ReadBack(total, time.Time{})
	if len(got) == 0 || len(got) == total {
		t.Fatalf("ReadBack = %d records, want >0 and <%d (oldest pruned)", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].RequestID >= got[i].RequestID {
			t.Fatalf("read-back out of order: %s before %s", got[i-1].RequestID, got[i].RequestID)
		}
	}
	if got[len(got)-1].RequestID != fmt.Sprintf("req-%03d", total-1) {
		t.Fatalf("newest record = %s, want req-%03d", got[len(got)-1].RequestID, total-1)
	}
}

// TestTailSamplerRotationSeqResumes: a restarted sampler continues the
// rotation numbering instead of overwriting old segments.
func TestTailSamplerRotationSeqResumes(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := TailConfig{Dir: dir, HeadEvery: -1, MaxFileBytes: 128, MaxFiles: 10, Metrics: NewRegistry()}
	for round := 0; round < 2; round++ {
		s, err := NewTailSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			s.Offer(Trace{RequestID: fmt.Sprintf("round%d-%d", round, i), Code: 500})
		}
		s.Close()
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "traces-*.jsonl"))
	seen := map[int]bool{}
	for _, seg := range segs {
		n := segmentSeq(seg)
		if n < 0 || seen[n] {
			t.Fatalf("segment %s: bad or duplicate sequence %d in %v", seg, n, segs)
		}
		seen[n] = true
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotations across both runs, got %v", segs)
	}
}

// TestTailSamplerCorruptLinesSkipped: torn or hand-mangled lines are
// skipped and counted on read-back; intact records still come through.
func TestTailSamplerCorruptLinesSkipped(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s, reg := newTestSampler(t, TailConfig{Dir: dir, HeadEvery: -1})
	s.Offer(Trace{RequestID: "good-1", Code: 500})

	// Simulate torn writes and manual edits between two valid offers.
	f, err := os.OpenFile(filepath.Join(dir, traceLogName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := "not json at all\n" + `{"reason":"error","truncated...` + "\n" + `{"request_id":"no-reason-field"}` + "\n\n"
	if _, err := f.WriteString(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s.Offer(Trace{RequestID: "good-2", Code: 500})
	got := s.ReadBack(0, time.Time{})
	if len(got) != 2 || got[0].RequestID != "good-1" || got[1].RequestID != "good-2" {
		t.Fatalf("ReadBack = %+v, want the two intact records", got)
	}
	// Three corrupt lines (the blank line is skipped silently, not counted).
	if v := reg.Counter("diag.tail.corrupt_skipped").Value(); v != 3 {
		t.Fatalf("corrupt_skipped = %d, want 3", v)
	}
}

// TestTraceRingAndTailConcurrent: the serving layer records every
// completed trace into the ring and offers it to the sampler from
// concurrent request goroutines. The ring must wrap cleanly and the log
// must hold every survivor, parseable, with nothing corrupt. Run under
// -race this is the diagnostics pipeline's data-race guard.
func TestTraceRingAndTailConcurrent(t *testing.T) {
	leakcheck.Check(t)
	const workers, perWorker, depth = 8, 200, 8
	ring := NewTraceRing(depth)
	s, reg := newTestSampler(t, TailConfig{HeadEvery: -1})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := Trace{RequestID: fmt.Sprintf("w%d-%d", w, i), Code: 500, Start: time.Now()}
				ring.Record(tr)
				s.Offer(tr)
			}
		}(w)
	}
	wg.Wait()
	if got := ring.Recent(); len(got) != depth {
		t.Fatalf("ring after wraparound: %d traces, want %d", len(got), depth)
	}
	total := int64(workers * perWorker)
	if v := reg.Counter("diag.tail.persisted").Value(); v != total {
		t.Fatalf("persisted = %d, want %d", v, total)
	}
	got := s.ReadBack(int(total), time.Time{})
	if int64(len(got)) != total {
		t.Fatalf("ReadBack = %d records, want %d", len(got), total)
	}
	if v := reg.Counter("diag.tail.corrupt_skipped").Value(); v != 0 {
		t.Fatalf("concurrent offers corrupted %d lines", v)
	}
}

// TestTailSamplerNilSafety: a nil sampler is a full no-op, mirroring
// the nil TraceRing contract.
func TestTailSamplerNilSafety(t *testing.T) {
	leakcheck.Check(t)
	var s *TailSampler
	s.Offer(Trace{Code: 500})
	if got := s.ReadBack(10, time.Time{}); got != nil {
		t.Fatalf("nil ReadBack = %v", got)
	}
	if got := s.Score(Trace{Code: 500}); got != "" {
		t.Fatalf("nil Score = %q", got)
	}
	if s.Dir() != "" {
		t.Fatal("nil Dir should be empty")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestTailSamplerRequiresDir: construction without a directory is a
// configuration error.
func TestTailSamplerRequiresDir(t *testing.T) {
	leakcheck.Check(t)
	if _, err := NewTailSampler(TailConfig{Metrics: NewRegistry()}); err == nil {
		t.Fatal("NewTailSampler without Dir should error")
	}
}

// nestedTraceLine is a trace line as servers before the flat span
// records wrote it: spans as a tree of nodes with map attributes.
const nestedTraceLine = `{"reason":"head","sampled_unix_ns":2,"request_id":"nested-1","start":"2026-01-02T03:04:05Z","endpoint":"batch","code":200,"bytes":10,"total_ns":5,"spans":{"name":"server.batch","start_ns":1,"ns":5,"children":[{"name":"decode","start_ns":2,"ns":1,"attrs":{"bytes":10}}]}}`

// flatTraceLine persists a sealed two-span trace the way Offer does.
func flatTraceLine(t testing.TB) []byte {
	root := NewSpan("server.batch")
	_, sp := StartSpan(ContextWithSpan(context.Background(), root), "decode")
	sp.SetAttr("bytes", 10)
	sp.End()
	root.End()
	tr := Trace{RequestID: "flat-1", Start: time.Unix(1, 0), Endpoint: "batch", Code: 200}
	tr.Spans, tr.Attrs = root.Records()
	line, err := json.Marshal(PersistedTrace{Reason: "head", SampledUnixNs: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestReadBackSkipsNestedSpans: a line an older server persisted with
// nested spans is skipped and counted as corrupt; a flat one reads back
// with its records.
func TestReadBackSkipsNestedSpans(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	data := append([]byte(nestedTraceLine+"\n"), flatTraceLine(t)...)
	if err := os.WriteFile(filepath.Join(dir, traceLogName), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	s, reg := newTestSampler(t, TailConfig{Dir: dir})
	got := s.ReadBack(0, time.Time{})
	if len(got) != 1 || got[0].RequestID != "flat-1" || len(got[0].Spans) != 2 || got[0].Spans[1].Parent != 1 {
		t.Fatalf("ReadBack = %+v, want the flat record", got)
	}
	if v := reg.Counter("diag.tail.corrupt_skipped").Value(); v != 1 {
		t.Fatalf("corrupt_skipped = %d, want 1", v)
	}
}

// FuzzReadBack: whatever bytes the trace log holds, ReadBack never
// panics, and every non-empty line is either returned or counted in
// diag.tail.corrupt_skipped.
func FuzzReadBack(f *testing.F) {
	f.Add([]byte(nestedTraceLine + "\n"))
	f.Add(append(flatTraceLine(f), '\n'))
	f.Add([]byte("not json\n\r\n{}\n" + nestedTraceLine))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, traceLogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(l, []byte("\r"))) > 0 {
				lines++
			}
		}
		s, reg := newTestSampler(t, TailConfig{Dir: dir})
		got := s.ReadBack(lines+1, time.Time{})
		if skipped := reg.Counter("diag.tail.corrupt_skipped").Value(); len(got)+int(skipped) != lines {
			t.Fatalf("%d records + %d skipped != %d non-empty lines", len(got), skipped, lines)
		}
	})
}
