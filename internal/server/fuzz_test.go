package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"bfast/internal/core"
	"bfast/internal/nrt"
)

// FuzzBatchDecode drives arbitrary bytes through the full /v1/batch
// path — JSON decode, framing validation, packing and (for inputs that
// survive validation) the batched detector. The server must never
// panic, never 5xx on malformed input, and every response must be
// well-formed JSON. Limits are kept tiny so accepted inputs stay cheap
// and iterations go to the decoder, which is the external trust
// boundary under test.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"pixels":[[1,2,null,4,5,6,7,8,9,10,11,12]],"history":8}`))
	f.Add([]byte(`{"pixels":[[1,2],[3]],"history":1}`))
	f.Add([]byte(`{"pixels":[],"history":4}`))
	f.Add([]byte(`{"series":[1,2,3],"history":2}`))
	f.Add([]byte(`{"pixels":[[1,2,3]],"history":2,"n":99}`))
	f.Add([]byte(`{"pixels":[[1,2,3]],"history":2,"n":-1}`))
	f.Add([]byte(`{"pixels":[[1e309]],"history":1}`))
	f.Add([]byte(`{"pixels":[[null,null,null,null]],"history":2,"harmonics":0}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	fuzzServe(f, mustServer(f, Config{
		MaxBodyBytes:   1 << 16,
		MaxBatchPixels: 4,
		MaxSeriesLen:   64,
		TraceDepth:     -1,
		Workers:        1,
	}), "/v1/batch", nil)
}

// FuzzFitDecode is FuzzBatchDecode for /v1/fit, the session-creating
// path: JSON decode, the history and capacity bounds, packing and the
// per-pixel fit. Sessions that fit accumulate up to the session limit,
// after which the handler answers 429; neither may panic or 5xx.
func FuzzFitDecode(f *testing.F) {
	f.Add([]byte(`{"pixels":[[1,2,null,4,5,6,7,8,9,10,11,12]],"history":12,"capacity":24}`))
	f.Add([]byte(`{"pixels":[[1,2,3,4]],"history":4}`))
	f.Add([]byte(`{"pixels":[[1]],"history":4611686018427387904,"capacity":100}`))
	f.Add([]byte(`{"pixels":[[1]],"history":16000,"capacity":100}`))
	f.Add([]byte(`{"pixels":[[1,2]],"history":2,"capacity":-5}`))
	f.Add([]byte(`{"pixels":[[1,2],[3]],"history":2}`))
	f.Add([]byte(`{"pixels":[],"history":4}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	fuzzServe(f, mustServer(f, Config{
		MaxBodyBytes:   1 << 16,
		MaxBatchPixels: 4,
		MaxSeriesLen:   64,
		TraceDepth:     -1,
		Workers:        1,
		NRT:            NRTConfig{MaxSessions: 4},
	}), "/v1/fit", nil)
}

// FuzzObserveDecode is FuzzBatchDecode for /v1/observe against a session
// fitted up front: 2 pixels, history 8, capacity 64. Every "$ID" in an
// input is replaced by that session's id, so mutations reach the date
// rows, the length checks and the observe pass instead of stopping at an
// unknown session. Once the session's 56 monitoring dates are used up
// the handler answers 409; neither that nor anything else may 5xx.
func FuzzObserveDecode(f *testing.F) {
	f.Add([]byte(`{"session":"$ID","dates":[[0.5,null]]}`))
	f.Add([]byte(`{"session":"$ID","dates":[[1,2],[null,null],[3,-4e-2]]}`))
	f.Add([]byte(`{"dates":[[1,2]],"session":"$ID"}`))
	f.Add([]byte(`{"session":"$ID","dates":[[1,2,3]]}`))
	f.Add([]byte(`{"session":"$ID","dates":[]}`))
	f.Add([]byte(`{"session":"$ID","dates":[null]}`))
	f.Add([]byte(`{"session":"$I\u0044","dates":[[1,2]]}`))
	f.Add([]byte(`{"session":"$ID","session":null,"dates":[[1,2]]}`))
	f.Add([]byte(`{"session":"$ID","dates":[[1,2]]} trailing`))
	f.Add([]byte(`{"session":"s-0000000000000000","dates":[[1,2]]}`))
	f.Add([]byte(`{"session":"$ID","dates":[[1e999,2]]}`))
	f.Add([]byte(`{"session":"$ID","dates":[[,,,,,,,,]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	srv := mustServer(f, Config{
		MaxBodyBytes: 1 << 16,
		MaxSeriesLen: 64,
		TraceDepth:   -1,
		Workers:      1,
	})
	history := make([]float64, 2*8)
	for i := range history {
		history[i] = float64(i%5) + 0.25*float64(i/8)
	}
	sum, err := srv.nrtMgr.Fit(context.Background(), nrt.FitRequest{
		Options: core.DefaultOptions(8), Pixels: 2, History: history, Capacity: 64,
	})
	if err != nil {
		f.Fatal(err)
	}
	id := []byte(sum.ID)
	fuzzServe(f, srv, "/v1/observe", func(body []byte) []byte {
		return bytes.ReplaceAll(body, []byte("$ID"), id)
	})
}

// FuzzReplyRanges renders a random /v1/observe reply and a random
// /v1/batch reply of the same size, up to four ranges, through writeJSON
// and requires both bodies to equal their one-range rendering and
// encoding/json's. Floats come from raw bit patterns and from a list of
// edge values, so NaN, ±Inf, subnormals, negative zero and both
// 'e'-format boundaries all occur. A result renders its floats only
// with StatusOK, and only such a result is kept finite: encoding/json
// rejects a non-finite value where the reply would write one.
func FuzzReplyRanges(f *testing.F) {
	for i, size := range []int{0, 1, replyRange - 1, replyRange, replyRange + 1, 2*replyRange - 1, 2 * replyRange, 3*replyRange + 17} {
		f.Add(int64(i), uint16(size))
	}
	edges := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, 1e-310, 1e-7, 9.99e-7, 1e-6, 1e20, 9.99e20, 1e21, math.MaxFloat64,
	}
	statuses := []core.Status{
		core.StatusOK, core.StatusInsufficientHistory, core.StatusSingular,
		core.StatusNoMonitoringData, core.StatusNoVariance,
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		rng := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			if rng.Intn(2) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return math.Float64frombits(rng.Uint64())
		}
		finite := func() float64 {
			for {
				if v := draw(); !math.IsNaN(v) && !math.IsInf(v, 0) {
					return v
				}
			}
		}
		n := int(size) % (4 * replyRange)
		obsRes := nrt.ObserveResult{ID: "s-fuzz", Dates: rng.Intn(4), NextDate: rng.Intn(500), Remaining: rng.Intn(500)}
		batch := make(batchReply, n)
		oracle := make([]DetectResponse, n)
		for i := 0; i < n; i++ {
			off := rng.Intn(300) - 1
			v := nrt.Verdict{
				Status: statuses[rng.Intn(len(statuses))], Break: off >= 0, BreakOffset: off,
				Process: draw(), Mean: draw(), ValidMon: rng.Intn(300),
			}
			if v.Break {
				obsRes.Breaks++
			}
			obsRes.Verdicts = append(obsRes.Verdicts, v)
			res := core.Result{
				Status: statuses[rng.Intn(len(statuses))], BreakIndex: rng.Intn(300) - 1,
				MosumMean: draw(), Sigma: draw(), ValidHistory: rng.Intn(300), Valid: rng.Intn(600),
			}
			if res.Status == core.StatusOK {
				res.MosumMean, res.Sigma = finite(), finite()
			}
			batch[i], oracle[i] = res, resultJSON(res)
		}
		want := oracleReply(t, obsRes)
		if got := appendReply(nil, observeReply{obsRes}); !bytes.Equal(got, want) {
			t.Fatalf("%d verdicts: one-range bytes differ:\n got %s\nwant %s", n, got, want)
		}
		rec := httptest.NewRecorder()
		if err := writeJSON(context.Background(), rec, observeReply{obsRes}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%d verdicts: writeJSON bytes differ:\n got %s\nwant %s", n, rec.Body.Bytes(), want)
		}
		checkReply(t, batch, oracle)
	})
}

// fuzzServe drives each fuzz input, after rewrite when one is given,
// through srv.ServeHTTP as a JSON POST to path and requires no panic, no
// 5xx and a JSON body; the single-scan parser must also agree with the
// stock decoder on the input as every request body.
func fuzzServe(f *testing.F, srv *Server, path string, rewrite func([]byte) []byte) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if rewrite != nil {
			body = rewrite(body)
		}
		if msg := divergesFromStock(body); msg != "" {
			t.Fatalf("%q: %s", body, msg)
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		if rec.Code >= 500 {
			t.Fatalf("5xx (%d) on client input %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		var payload any
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("status %d with non-JSON body %q", rec.Code, rec.Body.Bytes())
		}
	})
}
