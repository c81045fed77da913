package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"bfast/internal/core"
	"bfast/internal/nrt"
)

// verdictJSON is the reflection-path oracle for observeReply: the
// ObserveResponse verdict encoding/json would render.
func verdictJSON(v nrt.Verdict) VerdictJSON {
	out := VerdictJSON{
		Status:          v.Status.String(),
		Break:           v.Break,
		BreakIndex:      v.BreakOffset,
		ValidMonitoring: v.ValidMon,
	}
	if v.Status == core.StatusOK {
		out.Process = jsonFloat(v.Process)
		out.Magnitude = jsonFloat(v.Mean)
	}
	return out
}

// jsonFloat returns &v, or nil for values JSON cannot carry.
func jsonFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// oracleReply is what encoding/json writes for res.
func oracleReply(t *testing.T, res nrt.ObserveResult) []byte {
	t.Helper()
	out := ObserveResponse{
		Session: res.ID, Dates: res.Dates, NextDate: res.NextDate,
		Remaining: res.Remaining, Breaks: res.Breaks,
		Verdicts: make([]VerdictJSON, len(res.Verdicts)),
	}
	for i, v := range res.Verdicts {
		out.Verdicts[i] = verdictJSON(v)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replyCases covers every status, the values JSON cannot carry (NaN,
// ±Inf), negative zero, both e-notation boundaries and their
// neighbours, and break offsets of -1, 0 and beyond.
func replyCases() nrt.ObserveResult {
	floats := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e-7, -1e-7, 1e-6, 9.99e-7, 1e21, -1e21, 9.99e20, 1e20,
		0.1, -2.5, 1.0 / 3, 123456789.125, 5e-324, math.MaxFloat64,
	}
	statuses := []core.Status{
		core.StatusOK, core.StatusInsufficientHistory, core.StatusSingular,
		core.StatusNoMonitoringData, core.StatusNoVariance,
	}
	res := nrt.ObserveResult{ID: "s-0123456789abcdef", Dates: 3, NextDate: 140, Remaining: 88}
	for si, st := range statuses {
		for fi, f := range floats {
			off := []int{-1, 0, 7, 113}[(si+fi)%4]
			v := nrt.Verdict{
				Status: st, Break: off >= 0, BreakOffset: off,
				Process: f, Mean: floats[(fi+3)%len(floats)], ValidMon: fi * 3,
			}
			if v.Break {
				res.Breaks++
			}
			res.Verdicts = append(res.Verdicts, v)
		}
	}
	return res
}

// TestObserveReplyMatchesEncodingJSON: the hand-appended /v1/observe
// body is byte-identical to encoding/json over ObserveResponse.
func TestObserveReplyMatchesEncodingJSON(t *testing.T) {
	results := map[string]nrt.ObserveResult{
		"cases":       replyCases(),
		"no verdicts": {ID: "s-1", Dates: 1, NextDate: 115, Remaining: 0},
		"odd status":  {ID: "s-2", Verdicts: []nrt.Verdict{{Status: core.Status(42), BreakOffset: -1}}},
	}
	// Strings are not what sessions carry, but the appender must still
	// escape them as encoding/json does.
	for _, id := range []string{`a"b`, `a\b`, "a<b", "a>b", "a&b", "a\x01b", "a\x7fb", "é", "a\xffb", "\u2028"} {
		results["id "+id] = nrt.ObserveResult{ID: id}
	}
	for name, res := range results {
		want := oracleReply(t, res)
		if got := (observeReply{res}).appendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: reply bytes differ:\n got %s\nwant %s", name, got, want)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, observeReply{res})
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: writeJSON bytes differ:\n got %s\nwant %s", name, rec.Body.Bytes(), want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", name, ct)
		}
	}
}

// TestObserveReplyAllocs: a reply appended into a warm buffer
// allocates nothing.
func TestObserveReplyAllocs(t *testing.T) {
	r := observeReply{replyCases()}
	buf := r.appendJSON(nil)
	if n := testing.AllocsPerRun(20, func() { buf = r.appendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("warm reply: %v allocations, want 0", n)
	}
}
