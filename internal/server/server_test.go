package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bfast/internal/core"
	"bfast/internal/series"
)

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// jsonSeries builds a series with a break; NaN entries reach the wire
// as null via Series's encoder.
func jsonSeries(rng *rand.Rand, n, breakAt int, nanFrac float64) Series {
	out := make(Series, n)
	for t := 0; t < n; t++ {
		if rng.Float64() < nanFrac {
			out[t] = math.NaN()
			continue
		}
		v := 0.5 + 0.3*math.Sin(2*math.Pi*float64(t+1)/23) + rng.NormFloat64()*0.02
		if breakAt >= 0 && t >= breakAt {
			v -= 0.6
		}
		out[t] = v
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestDetectEndpointMatchesLibrary(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(7))
	seriesJSON := jsonSeries(rng, 300, 220, 0.4)
	resp, body := post(t, ts, "/v1/detect", DetectRequest{Series: seriesJSON, History: 150})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got DetectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	// The endpoint must agree with a direct library call.
	y := []float64(seriesJSON)
	opt := core.DefaultOptions(150)
	x, _ := series.MakeDesign(300, opt.Harmonics, opt.Frequency)
	want, err := core.Detect(y, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status.String() || got.BreakIndex != want.BreakIndex {
		t.Fatalf("endpoint %+v vs library %+v", got, want)
	}
	if !((got.Magnitude == nil) == (want.Status != core.StatusOK)) {
		t.Fatal("magnitude presence inconsistent")
	}
	if got.Magnitude != nil && *got.Magnitude != want.MosumMean {
		t.Fatalf("magnitude %v vs %v", *got.Magnitude, want.MosumMean)
	}
	if got.BreakIndex < 0 {
		t.Fatal("expected the injected break to be found")
	}
}

func TestDetectCUSUMAndOptions(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(8))
	k := 2
	hf := 0.5
	resp, body := post(t, ts, "/v1/detect", DetectRequest{
		Series: jsonSeries(rng, 240, 200, 0.3), History: 120,
		requestOptions: requestOptions{Harmonics: &k, HFrac: &hf, Process: "cusum"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(9))
	resp, body := post(t, ts, "/v1/trace", DetectRequest{
		Series: jsonSeries(rng, 300, 220, 0.3), History: 150,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Status != "ok" || len(tr.Process) == 0 || len(tr.Process) != len(tr.Boundary) {
		t.Fatalf("trace malformed: %+v", tr.Status)
	}
	if tr.BreakAt < 0 {
		t.Fatal("expected a crossing in the trace")
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(10))
	pixels := []Series{
		jsonSeries(rng, 200, 150, 0.3), // break
		jsonSeries(rng, 200, -1, 0.3),  // stable
		jsonSeries(rng, 200, -1, 0.99), // mostly missing
	}
	resp, body := post(t, ts, "/v1/batch", DetectRequest{Pixels: pixels, History: 100})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out []DetectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].BreakIndex < 0 {
		t.Fatal("pixel 0 should break")
	}
	if out[1].BreakIndex >= 0 {
		t.Fatal("pixel 1 should be stable")
	}
	if out[2].Status != "insufficient-history" {
		t.Fatalf("pixel 2 status %q", out[2].Status)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	cases := []struct {
		path string
		body string
	}{
		{"/v1/detect", `{`},
		{"/v1/detect", `{"history": 5}`},
		{"/v1/detect", `{"series": [1,2,3], "history": 0}`},
		{"/v1/detect", `{"series": [1,2,3], "history": 3}`},
		{"/v1/detect", `{"series": [1,2,3], "history": 1, "unknown": true}`},
		{"/v1/batch", `{"history": 5}`},
		{"/v1/batch", `{"pixels": [[1,2],[1]], "history": 1}`},
		{"/v1/trace", `{"history": 5}`},
	}
	for i, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d (%s): status %d, want 400", i, c.path, resp.StatusCode)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

func TestNullEncodesMissing(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{}))
	defer ts.Close()
	// 5 valid points + nulls; too few valid history points -> status
	// insufficient-history, proving nulls are treated as missing.
	body := `{"series": [0.1, null, 0.2, null, null, 0.3, null, null, null, null,
	                     null, null, null, null, null, null, null, null, 0.4, 0.5],
	          "history": 18}`
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "insufficient-history" {
		t.Fatalf("status %q; nulls must count as missing", got.Status)
	}
	if got.Valid != 5 {
		t.Fatalf("valid = %d, want 5", got.Valid)
	}
}

func ExampleNew() {
	s, err := New(Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := http.Get(ts.URL + "/v1/healthz")
	fmt.Println(resp.StatusCode)
	resp.Body.Close()
	// Output: 200
}
