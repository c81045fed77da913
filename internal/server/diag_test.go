package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode"

	"bfast/internal/obs"
)

// tracesResponse mirrors the /debug/bfast/traces JSON: merged entries
// carrying their source ("ring" or "disk") and, for disk entries, the
// tail-sampling reason.
type tracesResponse struct {
	Traces []struct {
		Source string `json:"source"`
		Reason string `json:"reason"`
		obs.Trace
	} `json:"traces"`
}

// errorRequest issues a request that fails validation (missing series)
// under the given correlation ID — a guaranteed tail-sample survivor.
func errorRequest(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, _ := postWithHeaders(t, ts, "/v1/detect", map[string]any{"history": 5},
		map[string]string{HeaderRequestID: id})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("error request: %d, want 400", resp.StatusCode)
	}
}

// TestTracesLimitSinceAndValidation: the merged traces endpoint defaults
// to 50, honors ?limit= and ?since=, and rejects malformed parameters.
func TestTracesLimitSinceAndValidation(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(mustServer(t, Config{
		Metrics: obs.NewRegistry(),
		Diag:    DiagConfig{Dir: dir, DisableProfiles: true},
	}))
	defer ts.Close()

	for _, id := range []string{"lim-1", "lim-2", "lim-3"} {
		errorRequest(t, ts, id)
	}

	resp, body := get(t, ts, "/debug/bfast/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces: %d %s", resp.StatusCode, body)
	}
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode traces: %v\n%s", err, body)
	}
	if len(tr.Traces) != 3 {
		t.Fatalf("default listing has %d traces, want 3", len(tr.Traces))
	}
	for _, e := range tr.Traces {
		if e.Source != "ring" {
			t.Fatalf("live-server trace source = %q, want ring (ring wins over disk)", e.Source)
		}
	}

	resp, body = get(t, ts, "/debug/bfast/traces?limit=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit=2: %d", resp.StatusCode)
	}
	tr = tracesResponse{}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(tr.Traces))
	}
	// The cap keeps the newest entries.
	if tr.Traces[1].RequestID != "lim-3" {
		t.Fatalf("limit kept %q newest, want lim-3", tr.Traces[1].RequestID)
	}

	// A future ?since= filters everything out.
	resp, body = get(t, ts, "/debug/bfast/traces?since=2100-01-01T00:00:00Z")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("since: %d", resp.StatusCode)
	}
	tr = tracesResponse{}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 0 {
		t.Fatalf("future since returned %d traces", len(tr.Traces))
	}

	for _, bad := range []string{"?limit=0", "?limit=-3", "?limit=abc", "?since=yesterday"} {
		resp, body = get(t, ts, "/debug/bfast/traces"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", bad, resp.StatusCode, body)
		}
	}
}

// TestTracesMergeAcrossRestart is the tentpole's acceptance path: an
// error trace persisted by one server process is still readable from
// /debug/bfast/traces after a restart over the same diagnostics dir —
// as a "disk" entry with its sampling reason — and resolvable by
// request_id.
func TestTracesMergeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Metrics: obs.NewRegistry(), Diag: DiagConfig{Dir: dir, DisableProfiles: true}}

	srvA := mustServer(t, cfg)
	tsA := httptest.NewServer(srvA)
	errorRequest(t, tsA, "persist-me")
	tsA.Close()
	if err := srvA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg.Metrics = obs.NewRegistry()
	tsB := httptest.NewServer(mustServer(t, cfg))
	defer tsB.Close()

	resp, body := get(t, tsB, "/debug/bfast/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces after restart: %d %s", resp.StatusCode, body)
	}
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range tr.Traces {
		if e.RequestID == "persist-me" {
			found = true
			if e.Source != "disk" || e.Reason != "error" {
				t.Fatalf("restarted trace = source %q reason %q, want disk/error", e.Source, e.Reason)
			}
		}
	}
	if !found {
		t.Fatalf("persisted trace lost across restart:\n%s", body)
	}

	// request_id lookup falls through the (empty) ring to the log.
	resp, body = get(t, tsB, "/debug/bfast/traces?request_id=persist-me")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request_id lookup: %d %s", resp.StatusCode, body)
	}
	var one obs.Trace
	if err := json.Unmarshal(body, &one); err != nil || one.RequestID != "persist-me" {
		t.Fatalf("request_id lookup body = %s (%v)", body, err)
	}
	resp, body = get(t, tsB, "/debug/bfast/traces?request_id=never-existed")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown request_id: %d, want 404", resp.StatusCode)
	}
	if e := errEnvelope(t, body); e.Code != CodeNotFound {
		t.Fatalf("unknown request_id: code %q, want %q", e.Code, CodeNotFound)
	}
}

// TestFlightEndpoint: the bundle downloads as a well-formed tar.gz with
// every live-state member, and non-GET methods are rejected.
func TestFlightEndpoint(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(mustServer(t, Config{
		Metrics: obs.NewRegistry(),
		Diag:    DiagConfig{Dir: dir, DisableProfiles: true},
	}))
	defer ts.Close()
	errorRequest(t, ts, "flight-err")

	resp, body := get(t, ts, "/debug/bfast/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("flight Content-Type = %q", ct)
	}
	gz, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("flight body is not gzip: %v", err)
	}
	members := map[string]bool{}
	tarr := tar.NewReader(gz)
	for {
		hdr, err := tarr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("flight tar: %v", err)
		}
		members[hdr.Name] = true
	}
	for _, want := range []string{
		"metrics.json", "metrics.prom", "traces_ring.json",
		"traces_persisted.jsonl", "config.json", "runtime.json",
		"nrt_sessions.json", "slo_objectives.json", "manifest.json",
	} {
		if !members[want] {
			t.Fatalf("flight bundle missing %s; have %v", want, members)
		}
	}

	resp, _ = postWithHeaders(t, ts, "/debug/bfast/flight", map[string]any{}, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST flight: %d, want 405", resp.StatusCode)
	}
}

// TestSessionStitchingInTraces: /v1/fit and /v1/observe traces carry
// the NRT session ID, so an operator can pull every trace that touched
// a session out of the merged listing.
func TestSessionStitchingInTraces(t *testing.T) {
	ds := nrtScene(t)
	n := ds.Spec.History
	ts := httptest.NewServer(mustServer(t, Config{Metrics: obs.NewRegistry()}))
	defer ts.Close()

	var fit struct {
		Session string `json:"session"`
	}
	resp, raw := postJSON(t, ts, "/v1/fit", map[string]any{
		"pixels": jsonRows(ds, 0, n, true), "history": n, "capacity": ds.Spec.N,
	}, &fit)
	if resp.StatusCode != http.StatusOK || fit.Session == "" {
		t.Fatalf("fit: %d %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts, "/v1/observe", map[string]any{
		"session": fit.Session, "dates": jsonRows(ds, n, n+2, false),
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, raw)
	}

	_, body := get(t, ts, "/debug/bfast/traces")
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	stitched := map[string]bool{}
	for _, e := range tr.Traces {
		if e.Session == fit.Session {
			stitched[e.Endpoint] = true
		}
	}
	if !stitched["fit"] || !stitched["observe"] {
		t.Fatalf("session %s stitched endpoints = %v, want fit and observe\n%s",
			fit.Session, stitched, body)
	}
}

// TestMetricsExemplarExposed: after real traffic the Prometheus
// exposition carries OpenMetrics exemplar suffixes whose trace IDs
// resolve against /debug/bfast/traces.
func TestMetricsExemplarExposed(t *testing.T) {
	ts := httptest.NewServer(mustServer(t, Config{Metrics: obs.NewRegistry()}))
	defer ts.Close()
	rng := rand.New(rand.NewSource(7))

	const id = "exemplar-req-1"
	resp, _ := postWithHeaders(t, ts, "/v1/detect",
		map[string]any{"series": jsonSeries(rng, 120, 70, 0.2), "history": 60},
		map[string]string{HeaderRequestID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d", resp.StatusCode)
	}

	_, body := get(t, ts, "/metrics?format=prometheus")
	if !strings.Contains(string(body), `# {trace_id="`+id+`"}`) {
		t.Fatalf("/metrics missing the exemplar for %s:\n%s", id, body)
	}

	resp, _ = get(t, ts, "/debug/bfast/traces?request_id="+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exemplar trace ID does not resolve: %d", resp.StatusCode)
	}
}

// TestResolvedConfigCoversConfig walks Config by reflection and pins the
// flight bundle's config.json to it: every field except Logger and
// Metrics has exactly one key (snake-cased name, _ns on durations), the
// NRT/Diag/SLO groups nest, and no key outlives its field.
func TestResolvedConfigCoversConfig(t *testing.T) {
	s := mustServer(t, Config{Metrics: obs.NewRegistry()})
	var want, got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "Logger" || f.Name == "Metrics" {
				continue
			}
			key := prefix + snakeCase(f.Name)
			if f.Type.Kind() == reflect.Struct {
				walk(key+".", f.Type)
				continue
			}
			if f.Type == reflect.TypeOf(time.Duration(0)) {
				key += "_ns"
			}
			want = append(want, key)
		}
	}
	walk("", reflect.TypeOf(Config{}))
	var flatten func(prefix string, m map[string]any)
	flatten = func(prefix string, m map[string]any) {
		for k, v := range m {
			if sub, ok := v.(map[string]any); ok {
				flatten(prefix+k+".", sub)
				continue
			}
			got = append(got, prefix+k)
		}
	}
	flatten("", s.resolvedConfig())
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resolvedConfig keys drifted from Config fields:\n got  %v\n want %v", got, want)
	}
}

// snakeCase maps a Go field name to its config.json key
// (SlowThreshold → slow_threshold, NRT → nrt).
func snakeCase(name string) string {
	var b strings.Builder
	r := []rune(name)
	for i, c := range r {
		if unicode.IsUpper(c) && i > 0 &&
			(unicode.IsLower(r[i-1]) || i+1 < len(r) && unicode.IsLower(r[i+1])) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}
