package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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

	fuzzServe(f, "/v1/batch", Config{
		MaxBodyBytes:   1 << 16,
		MaxBatchPixels: 4,
		MaxSeriesLen:   64,
		TraceDepth:     -1,
		Workers:        1,
	})
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
	fuzzServe(f, "/v1/fit", Config{
		MaxBodyBytes:   1 << 16,
		MaxBatchPixels: 4,
		MaxSeriesLen:   64,
		TraceDepth:     -1,
		Workers:        1,
		NRT:            NRTConfig{MaxSessions: 4},
	})
}

// fuzzServe drives each fuzz input through ServeHTTP as a JSON POST to
// path and requires no panic, no 5xx and a JSON body.
func fuzzServe(f *testing.F, path string, cfg Config) {
	srv := mustServer(f, cfg)
	f.Fuzz(func(t *testing.T, body []byte) {
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
