package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/obs"
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

// appendReply appends a's whole reply to b as one range: the reference
// every range-split rendering must match.
func appendReply(b []byte, a jsonAppender) []byte {
	b = a.appendHead(b)
	b = a.appendRows(b, 0, a.rows())
	return a.appendTail(b)
}

// repeatVerdicts returns res with its verdicts cycled out to n rows and
// Breaks recounted, so a reply of any size mixes every case of res.
func repeatVerdicts(res nrt.ObserveResult, n int) nrt.ObserveResult {
	src := res.Verdicts
	res.Verdicts, res.Breaks = make([]nrt.Verdict, n), 0
	for i := range res.Verdicts {
		res.Verdicts[i] = src[i%len(src)]
		if res.Verdicts[i].Break {
			res.Breaks++
		}
	}
	return res
}

// rangeSizes are the reply sizes around the one-range/parallel switch:
// one range less a row, two full ranges, and three full ranges plus a
// partial last one.
var rangeSizes = []int{2*replyRange - 1, 2 * replyRange, 3*replyRange + 17}

// TestObserveReplyMatchesEncodingJSON: the hand-appended /v1/observe
// body is byte-identical to encoding/json over ObserveResponse, in one
// range and, through writeJSON, split into parallel ranges.
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
	for _, n := range rangeSizes {
		results[fmt.Sprintf("%d rows", n)] = repeatVerdicts(replyCases(), n)
	}
	for name, res := range results {
		want := oracleReply(t, res)
		if got := appendReply(nil, observeReply{res}); !bytes.Equal(got, want) {
			t.Fatalf("%s: reply bytes differ:\n got %s\nwant %s", name, got, want)
		}
		rec := httptest.NewRecorder()
		if err := writeJSON(context.Background(), rec, observeReply{res}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: writeJSON bytes differ:\n got %s\nwant %s", name, rec.Body.Bytes(), want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", name, ct)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("%s: content length %q, body is %d bytes", name, cl, len(want))
		}
	}
}

// TestObserveReplyAllocs: a reply appended into a warm buffer
// allocates nothing.
func TestObserveReplyAllocs(t *testing.T) {
	var r jsonAppender = observeReply{replyCases()}
	buf := appendReply(nil, r)
	if n := testing.AllocsPerRun(20, func() { buf = appendReply(buf[:0], r) }); n != 0 {
		t.Fatalf("warm reply: %v allocations, want 0", n)
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body, so
// measuring writeJSON does not measure a recorder's growing buffer.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestLargeReplyAllocs: a warm 8 192-row observe reply through writeJSON
// (eight parallel ranges) allocates under 4 KiB a call — the range
// buffers come from their pool and none regrows. TotalAlloc counts what
// the pool's helpers allocate too, which AllocsPerRun would not.
func TestLargeReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	r := observeReply{repeatVerdicts(replyCases(), 8192)}
	w := &discardWriter{h: http.Header{}}
	// Start from a collected heap, so the measured calls run with the
	// pacer's whole headroom: two collections inside them would empty
	// the pool and charge this test with the garbage earlier tests left.
	runtime.GC()
	for i := 0; i < 4; i++ {
		if err := writeJSON(context.Background(), w, r); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = writeJSON(context.Background(), w, r)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("warm 8192-row reply allocated %d bytes a call, want < 4096", per)
	} else {
		t.Logf("warm 8192-row reply: %d bytes a call", per)
	}
}

// TestCancelledReplyWritesNothing: a request context cancelled before
// its ranges render leaves the reply unwritten and returns the
// context's error, so a cut-short reply never reaches the wire.
func TestCancelledReplyWritesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	err := writeJSON(ctx, rec, observeReply{repeatVerdicts(replyCases(), 2*replyRange)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rec.Body.Len() != 0 || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("cancelled reply wrote %d bytes (Content-Length %q)",
			rec.Body.Len(), rec.Header().Get("Content-Length"))
	}
}

// releaseProbe is an observe reply that records, when the endpoint
// releases it, how many body bytes had reached the writer.
type releaseProbe struct {
	observeReply
	rec       *httptest.ResponseRecorder
	atRelease *int
}

func (p releaseProbe) release() { *p.atRelease = p.rec.Body.Len() }

// TestReplyReleasedAfterWrite: the endpoint hands a reply's pooled
// verdicts back only once its whole body is written, whether it
// rendered in one range or in several on the shared pool.
func TestReplyReleasedAfterWrite(t *testing.T) {
	s := mustServer(t, Config{})
	for _, rows := range []int{3, 2*replyRange + 5} {
		rec := httptest.NewRecorder()
		at := -1
		probe := releaseProbe{observeReply{repeatVerdicts(replyCases(), rows)}, rec, &at}
		h := s.endpoint("probe", http.MethodPost, false, func(context.Context, *http.Request, *obs.Trace) (any, *apiError) {
			return probe, nil
		})
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", nil))
		if at == 0 || at != rec.Body.Len() {
			t.Fatalf("%d rows: released after %d of %d bytes", rows, at, rec.Body.Len())
		}
	}
}

// TestRepliesCarryContentLength: every appender reply — /v1/observe,
// /v1/batch and /v1/detect, in one range and in several — is sent with a
// Content-Length equal to its body and without chunked framing.
func TestRepliesCarryContentLength(t *testing.T) {
	s := mustServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	rng := rand.New(rand.NewSource(37))
	const history = 12
	observeBody := func(px int) map[string]any {
		hist := make([]float64, px*history)
		for i := range hist {
			hist[i] = 0.5 + 0.1*math.Sin(float64(i%history)) + 0.01*rng.NormFloat64()
		}
		sum, err := s.nrtMgr.Fit(context.Background(), nrt.FitRequest{
			Options: core.DefaultOptions(history), Pixels: px, History: hist, Capacity: 2 * history,
		})
		if err != nil {
			t.Fatal(err)
		}
		return map[string]any{"session": sum.ID, "dates": []Series{jsonSeries(rng, px, -1, 0.2)}}
	}
	for _, px := range []int{3, 2*replyRange + 5} {
		for _, c := range []struct {
			path string
			body any
		}{
			{"/v1/observe", observeBody(px)},
			{"/v1/batch", batchBody(rng, px, 2*history)},
			{"/v1/detect", map[string]any{"series": jsonSeries(rng, 2*history, -1, 0.2), "history": history}},
		} {
			resp, body := post(t, ts, c.path, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s (%d px): status %d: %s", c.path, px, resp.StatusCode, body)
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Fatalf("%s (%d px): Content-Length %d, transfer encoding %v, body %d bytes",
					c.path, px, resp.ContentLength, resp.TransferEncoding, len(body))
			}
		}
	}
}
