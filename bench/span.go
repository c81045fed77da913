package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (the parent of roots, and
// what a nil tracer hands out).
type spanID int32

// span is one timed call into a layer's public API, recorded by the
// harness from outside the program under test.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: start returns 0 and end is a no-op, so workload code is
// written once and the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(parent spanID, name string) spanID {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// dur returns a finished span's duration.
func (t *tracer) dur(id spanID) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap (two
// clients under one round) are counted once, so self time never goes
// negative and the selves of a tree sum to the root's duration when
// nothing ran concurrently.
func selfTimes(spans []span) []int64 {
	kids := make(map[spanID][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs - coveredNs(spans, kids[s.ID], s.StartNs, s.EndNs)
	}
	return self
}

// coveredNs is the length of the union of the children's intervals,
// clipped to [lo, hi].
func coveredNs(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
	var covered int64
	end := lo
	for _, k := range kids {
		s, e := spans[k].StartNs, spans[k].EndNs
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			end = e
		}
	}
	return covered
}

// selfByName sums self time per span name over the subtree rooted at
// root (root included).
func (t *tracer) selfByName(root spanID) map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Spans are appended in start order and a child starts after its
	// parent, so one forward pass marks the subtree.
	in := make([]bool, len(t.spans)+1)
	in[root] = true
	sub := make([]span, 0, 64)
	for _, s := range t.spans[root-1:] {
		if s.ID == root || in[s.Parent] {
			in[s.ID] = true
			sub = append(sub, s)
		}
	}
	out := make(map[string]int64)
	for i, ns := range selfTimes(sub) {
		out[sub[i].Name] += ns
	}
	return out
}

// writeFile dumps the spans as JSON; called once when the run ends.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
