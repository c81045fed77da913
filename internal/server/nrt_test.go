package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"bfast/internal/core"
	"bfast/internal/nrt"
	"bfast/internal/obs"
	"bfast/internal/state"
	"bfast/internal/workload"
)

// nrtScene is a small scene with the acceptance characteristics: cloud-
// masked missing values and injected breaks.
func nrtScene(t *testing.T) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		M: 64, N: 228, History: 114,
		NaNFrac: 0.5, Mask: workload.MaskClouds,
		BreakFrac: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// jsonRows renders rows of ds.Y[pixels][from:to) as JSON arrays with
// null for NaN; pixelMajor selects row-per-pixel (fit/batch) vs
// row-per-date (observe).
func jsonRows(ds *workload.Dataset, from, to int, pixelMajor bool) []json.RawMessage {
	N := ds.Spec.N
	encode := func(vals []float64) json.RawMessage {
		b := []byte{'['}
		for i, v := range vals {
			if i > 0 {
				b = append(b, ',')
			}
			if math.IsNaN(v) {
				b = append(b, "null"...)
			} else {
				j, _ := json.Marshal(v)
				b = append(b, j...)
			}
		}
		return append(b, ']')
	}
	var rows []json.RawMessage
	if pixelMajor {
		for i := 0; i < ds.Spec.M; i++ {
			rows = append(rows, encode(ds.Y[i*N+from:i*N+to]))
		}
	} else {
		for d := from; d < to; d++ {
			vals := make([]float64, ds.Spec.M)
			for i := range vals {
				vals[i] = ds.Y[i*N+d]
			}
			rows = append(rows, encode(vals))
		}
	}
	return rows
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, out any) (*http.Response, []byte) {
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
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode == 200 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, buf.Bytes())
		}
	}
	return resp, buf.Bytes()
}

// TestNRTEndToEndMatchesBatch: fit a scene over HTTP, stream all
// monitoring dates through /v1/observe — with a simulated restart in
// the middle (Shutdown, new Server over the same state dir) — and the
// final verdicts must agree with one offline /v1/batch run over the
// full series.
func TestNRTEndToEndMatchesBatch(t *testing.T) {
	ds := nrtScene(t)
	n, N := ds.Spec.History, ds.Spec.N
	dir := filepath.Join(t.TempDir(), "nrt-state")

	srvA := mustServer(t, Config{NRT: NRTConfig{StateDir: dir}, Metrics: obs.NewRegistry()})
	tsA := httptest.NewServer(srvA)

	var fit struct {
		Session  string `json:"session"`
		Pixels   int    `json:"pixels"`
		OK       int    `json:"ok"`
		NextDate int    `json:"next_date"`
	}
	resp, raw := postJSON(t, tsA, "/v1/fit", map[string]any{
		"pixels": jsonRows(ds, 0, n, true), "history": n, "capacity": N,
	}, &fit)
	if resp.StatusCode != 200 {
		t.Fatalf("fit: %d %s", resp.StatusCode, raw)
	}
	if fit.Pixels != ds.Spec.M || fit.NextDate != n || fit.OK == 0 {
		t.Fatalf("fit summary %+v", fit)
	}

	var obsResp ObserveResponse
	resp, raw = postJSON(t, tsA, "/v1/observe", map[string]any{
		"session": fit.Session, "dates": jsonRows(ds, n, n+57, false),
	}, &obsResp)
	if resp.StatusCode != 200 {
		t.Fatalf("observe: %d %s", resp.StatusCode, raw)
	}
	if obsResp.NextDate != n+57 {
		t.Fatalf("observe cursor %+v", obsResp)
	}

	// Simulated restart: drain server A (persists), boot B on the dir.
	tsA.Close()
	if err := srvA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	srvB := mustServer(t, Config{NRT: NRTConfig{StateDir: dir}, Metrics: obs.NewRegistry()})
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	var list SessionsResponse
	lresp, err := http.Get(tsB.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Sessions) != 1 || list.Sessions[0].ID != fit.Session || list.Sessions[0].NextDate != n+57 {
		t.Fatalf("restored sessions %+v", list.Sessions)
	}

	resp, raw = postJSON(t, tsB, "/v1/observe", map[string]any{
		"session": fit.Session, "dates": jsonRows(ds, n+57, N, false),
	}, &obsResp)
	if resp.StatusCode != 200 {
		t.Fatalf("observe after restart: %d %s", resp.StatusCode, raw)
	}
	if obsResp.Remaining != 0 || obsResp.Breaks == 0 {
		t.Fatalf("final observe %+v", obsResp)
	}

	// Reference: one offline batch over the full series.
	var batch []DetectResponse
	resp, raw = postJSON(t, tsB, "/v1/batch", map[string]any{
		"pixels": jsonRows(ds, 0, N, true), "history": n,
	}, &batch)
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	for i, v := range obsResp.Verdicts {
		b := batch[i]
		if b.Status == "no-monitoring-data" {
			if v.Status != "ok" || v.ValidMonitoring != 0 {
				t.Fatalf("pixel %d: %+v vs offline no_monitoring_data", i, v)
			}
			continue
		}
		if v.Status != b.Status || v.BreakIndex != b.BreakIndex {
			t.Fatalf("pixel %d: nrt (%s,%d) vs batch (%s,%d)", i, v.Status, v.BreakIndex, b.Status, b.BreakIndex)
		}
		if v.Status == "ok" {
			if (v.Magnitude == nil) != (b.Magnitude == nil) {
				t.Fatalf("pixel %d: magnitude presence diverged", i)
			}
			if v.Magnitude != nil && math.Float64bits(*v.Magnitude) != math.Float64bits(*b.Magnitude) {
				t.Fatalf("pixel %d: magnitude %v vs %v", i, *v.Magnitude, *b.Magnitude)
			}
		}
	}
}

// TestNRTErrorCodes: the NRT error paths return their declared
// structured codes.
func TestNRTErrorCodes(t *testing.T) {
	ds := nrtScene(t)
	n := ds.Spec.History
	ts := httptest.NewServer(mustServer(t, Config{Metrics: obs.NewRegistry()}))
	defer ts.Close()

	code := func(raw []byte) string {
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		json.Unmarshal(raw, &e)
		return e.Error.Code
	}

	resp, raw := postJSON(t, ts, "/v1/observe", map[string]any{
		"session": "s-0000000000000000", "dates": jsonRows(ds, n, n+1, false),
	}, nil)
	if resp.StatusCode != 404 || code(raw) != CodeNotFound {
		t.Fatalf("unknown session: %d %s", resp.StatusCode, raw)
	}

	var fit struct {
		Session string `json:"session"`
	}
	resp, raw = postJSON(t, ts, "/v1/fit", map[string]any{
		"pixels": jsonRows(ds, 0, n, true), "history": n, "capacity": n + 2,
	}, &fit)
	if resp.StatusCode != 200 {
		t.Fatalf("fit: %d %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts, "/v1/observe", map[string]any{
		"session": fit.Session, "dates": jsonRows(ds, n, n+3, false),
	}, nil)
	if resp.StatusCode != 409 || code(raw) != CodeSessionExhausted {
		t.Fatalf("exhausted: %d %s", resp.StatusCode, raw)
	}

	short := jsonRows(ds, n, n+1, false)
	short[0] = short[0][:bytes.LastIndexByte(short[0], ',')]
	short[0] = append(short[0], ']')
	resp, raw = postJSON(t, ts, "/v1/observe", map[string]any{
		"session": fit.Session, "dates": short,
	}, nil)
	if resp.StatusCode != 400 || code(raw) != CodeLengthMismatch {
		t.Fatalf("short date row: %d %s", resp.StatusCode, raw)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions?session="+fit.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/sessions?session=" + fit.Session)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != 404 {
		t.Fatalf("deleted session lookup: %d", gresp.StatusCode)
	}
}

// TestNRTSessionLimit: fits past NRT.MaxSessions get 429 rate_limited.
func TestNRTSessionLimit(t *testing.T) {
	ds := nrtScene(t)
	n := ds.Spec.History
	ts := httptest.NewServer(mustServer(t, Config{
		NRT:     NRTConfig{MaxSessions: 1},
		Metrics: obs.NewRegistry(),
	}))
	defer ts.Close()
	body := map[string]any{"pixels": jsonRows(ds, 0, n, true), "history": n}
	if resp, raw := postJSON(t, ts, "/v1/fit", body, nil); resp.StatusCode != 200 {
		t.Fatalf("first fit: %d %s", resp.StatusCode, raw)
	}
	resp, raw := postJSON(t, ts, "/v1/fit", body, nil)
	if resp.StatusCode != 429 {
		t.Fatalf("second fit past the limit: %d %s", resp.StatusCode, raw)
	}
}

// flakyStore is a store whose Save, Append and Delete fail on demand.
type flakyStore struct {
	state.Store
	failSave, failAppend, failDelete bool
}

func (s *flakyStore) Delete(ctx context.Context, id string) error {
	if s.failDelete {
		return errors.New("flaky store: delete failed")
	}
	return s.Store.Delete(ctx, id)
}

func (s *flakyStore) Save(ctx context.Context, id string, data []byte) error {
	if s.failSave {
		return errors.New("flaky store: save failed")
	}
	return s.Store.Save(ctx, id, data)
}

func (s *flakyStore) Append(ctx context.Context, id string, frame []byte) error {
	if s.failAppend {
		return errors.New("flaky store: append failed")
	}
	return s.Store.Append(ctx, id, frame)
}

// TestStoreFailuresAreInternal: a store failure under /v1/fit or
// /v1/observe is a 500 internal, not the client's fault. A fit that
// could not save registers nothing; an observe that could not persist
// drops the session, so a retry gets 404 instead of pushing its dates
// twice, and a restart resumes at the cursor from before that observe,
// bit-identical from there on to a twin that never failed.
func TestStoreFailuresAreInternal(t *testing.T) {
	ctx := context.Background()
	ds := nrtScene(t)
	m, n, N := ds.Spec.M, ds.Spec.History, ds.Spec.N
	store := &flakyStore{Store: state.NewMemStore()}
	srv := mustServer(t, Config{Metrics: obs.NewRegistry()})
	srv.nrtMgr = nrt.NewManager(nrt.Config{Store: store, Metrics: obs.NewRegistry()})
	serve := func(path string, body any) (int, string, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		json.Unmarshal(rec.Body.Bytes(), &e)
		return rec.Code, e.Error.Code, rec.Body.Bytes()
	}
	fitBody := map[string]any{"pixels": jsonRows(ds, 0, n, true), "history": n, "capacity": N}
	observeBody := func(id string, d int) map[string]any {
		return map[string]any{"session": id, "dates": jsonRows(ds, d, d+1, false)}
	}

	store.failSave = true
	if status, code, raw := serve("/v1/fit", fitBody); status != 500 || code != CodeInternal {
		t.Fatalf("fit with a failing save: %d %s", status, raw)
	}
	if live := srv.nrtMgr.Len(); live != 0 {
		t.Fatalf("a failed fit left %d live sessions", live)
	}
	store.failSave = false
	status, _, raw := serve("/v1/fit", fitBody)
	if status != 200 {
		t.Fatalf("fit: %d %s", status, raw)
	}
	var fit struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &fit); err != nil {
		t.Fatal(err)
	}
	if status, _, raw := serve("/v1/observe", observeBody(fit.Session, n)); status != 200 {
		t.Fatalf("observe: %d %s", status, raw)
	}
	store.failAppend = true
	if status, code, raw := serve("/v1/observe", observeBody(fit.Session, n+1)); status != 500 || code != CodeInternal {
		t.Fatalf("observe with a failing append: %d %s", status, raw)
	}
	store.failAppend = false
	if status, code, raw := serve("/v1/observe", observeBody(fit.Session, n+1)); status != 404 || code != CodeNotFound {
		t.Fatalf("retried observe: %d %s", status, raw)
	}

	restored := nrt.NewManager(nrt.Config{Store: store, Metrics: obs.NewRegistry()})
	if got, err := restored.Restore(ctx); err != nil || got != 1 {
		t.Fatalf("restore: %d sessions, %v", got, err)
	}
	if info, err := restored.Get(fit.Session); err != nil || info.NextDate != n+1 {
		t.Fatalf("restored session %+v, %v; want cursor %d", info, err, n+1)
	}
	hist := make([]float64, 0, m*n)
	for i := 0; i < m; i++ {
		hist = append(hist, ds.Y[i*N:i*N+n]...)
	}
	twin := nrt.NewManager(nrt.Config{Metrics: obs.NewRegistry()})
	sum, err := twin.Fit(ctx, nrt.FitRequest{Options: core.DefaultOptions(n), Pixels: m, History: hist, Capacity: N})
	if err != nil {
		t.Fatal(err)
	}
	date := func(d int) []float64 {
		vals := make([]float64, m)
		for i := range vals {
			vals[i] = ds.Y[i*N+d]
		}
		return vals
	}
	if _, err := twin.Observe(ctx, sum.ID, date(n), 1); err != nil {
		t.Fatal(err)
	}
	for d := n + 1; d < n+8; d++ {
		got, err := restored.Observe(ctx, fit.Session, date(d), 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Observe(ctx, sum.ID, date(d), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Verdicts {
			w := want.Verdicts[i]
			if v.Status != w.Status || v.Break != w.Break || v.BreakOffset != w.BreakOffset || v.ValidMon != w.ValidMon ||
				math.Float64bits(v.Process) != math.Float64bits(w.Process) || math.Float64bits(v.Mean) != math.Float64bits(w.Mean) {
				t.Fatalf("date %d pixel %d: restored %+v, twin %+v", d, i, v, w)
			}
		}
	}
}

// TestStoreDeleteFailureKeepsSession: a store failure under DELETE
// /v1/sessions is a 500 internal that leaves the session live and
// listed, a retry once the store recovers deletes it, and a fresh
// manager over the store then restores nothing.
func TestStoreDeleteFailureKeepsSession(t *testing.T) {
	ctx := context.Background()
	ds := nrtScene(t)
	n, N := ds.Spec.History, ds.Spec.N
	store := &flakyStore{Store: state.NewMemStore()}
	srv := mustServer(t, Config{Metrics: obs.NewRegistry()})
	srv.nrtMgr = nrt.NewManager(nrt.Config{Store: store, Metrics: obs.NewRegistry()})
	do := func(method, path string, body []byte) (int, string, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		json.Unmarshal(rec.Body.Bytes(), &e)
		return rec.Code, e.Error.Code, rec.Body.Bytes()
	}
	raw, err := json.Marshal(map[string]any{"pixels": jsonRows(ds, 0, n, true), "history": n, "capacity": N})
	if err != nil {
		t.Fatal(err)
	}
	status, _, raw := do(http.MethodPost, "/v1/fit", raw)
	if status != 200 {
		t.Fatalf("fit: %d %s", status, raw)
	}
	var fit struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &fit); err != nil {
		t.Fatal(err)
	}
	del := "/v1/sessions?session=" + fit.Session

	store.failDelete = true
	if status, code, raw := do(http.MethodDelete, del, nil); status != 500 || code != CodeInternal {
		t.Fatalf("delete with a failing store: %d %s", status, raw)
	}
	status, _, raw = do(http.MethodGet, "/v1/sessions", nil)
	var list SessionsResponse
	if err := json.Unmarshal(raw, &list); status != 200 || err != nil {
		t.Fatalf("list: %d %s %v", status, raw, err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != fit.Session {
		t.Fatalf("after a failed delete the sessions are %+v, want %s", list.Sessions, fit.Session)
	}

	store.failDelete = false
	if status, _, raw := do(http.MethodDelete, del, nil); status != 200 {
		t.Fatalf("retried delete: %d %s", status, raw)
	}
	if live := srv.nrtMgr.Len(); live != 0 {
		t.Fatalf("a finished delete left %d live sessions", live)
	}
	fresh := nrt.NewManager(nrt.Config{Store: store, Metrics: obs.NewRegistry()})
	if got, err := fresh.Restore(ctx); err != nil || got != 0 {
		t.Fatalf("restore after the delete: %d sessions, %v", got, err)
	}
}
