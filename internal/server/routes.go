package server

import (
	"fmt"
	"sort"
)

// Route is one declared entry of the v1 API surface. The table below is
// the single source of truth: New mounts exactly the routes declared
// here (gated by the Debug/Pprof flags), VerifyRoutes fails when the mux
// and the table drift, and the README's endpoint and error-code tables
// are generated from the same declarations by inspection. Adding a
// handler without declaring it here — or declaring a route without
// mounting it — is a constructor error, not a silent skew.
type Route struct {
	// Method is the HTTP method the route accepts.
	Method string
	// Path is the exact mux pattern.
	Path string
	// Summary is the one-line purpose (doc/debug output).
	Summary string
	// Heavy marks routes running under the concurrency limiter with 429
	// backpressure (the compute endpoints).
	Heavy bool
	// Debug marks routes mounted only when Config.DisableDebug is unset.
	Debug bool
	// Pprof marks routes additionally gated on Config.EnablePprof.
	Pprof bool
	// Codes lists the structured error codes the route can return,
	// beyond the transport-level ones every route shares.
	Codes []string
}

// common code sets, in README table order.
var (
	bodyCodes = []string{
		CodeInvalidJSON, CodeInvalidArgument, CodeLengthMismatch,
		CodeBodyTooLarge, CodeMethodNotAllowed, CodeRateLimited,
		CodeCanceled, CodeInternal,
	}
	batchCodes = append([]string{CodeBatchTooLarge}, bodyCodes...)
)

// RouteTable declares the complete HTTP surface.
func RouteTable() []Route {
	return []Route{
		{Method: "GET", Path: "/v1/healthz", Summary: "liveness; 503 while draining", Codes: []string{CodeUnavailable}},
		{Method: "POST", Path: "/v1/detect", Summary: "one pixel, one result", Heavy: true, Codes: bodyCodes},
		{Method: "POST", Path: "/v1/trace", Summary: "one pixel, full process trajectory", Heavy: true, Codes: bodyCodes},
		{Method: "POST", Path: "/v1/batch", Summary: "many pixels, one result each", Heavy: true, Codes: batchCodes},
		{Method: "POST", Path: "/v1/fit", Summary: "fit a scene's monitors, open an NRT session", Heavy: true,
			Codes: append([]string{CodeUnavailable}, batchCodes...)},
		{Method: "POST", Path: "/v1/observe", Summary: "fold new acquisition dates across an NRT session", Heavy: true,
			Codes: append([]string{CodeNotFound, CodeSessionExhausted, CodeUnavailable}, bodyCodes...)},
		{Method: "GET", Path: "/v1/sessions", Summary: "list NRT sessions, or one via ?session=",
			Codes: []string{CodeNotFound, CodeMethodNotAllowed}},
		{Method: "DELETE", Path: "/v1/sessions", Summary: "delete an NRT session and its snapshot",
			Codes: []string{CodeNotFound, CodeInvalidArgument, CodeMethodNotAllowed, CodeInternal}},
		{Method: "GET", Path: "/metrics", Summary: "metric JSON (Prometheus text via Accept)", Debug: true},
		{Method: "GET", Path: "/debug/bfast", Summary: "resolved config and recent request traces", Debug: true},
		{Method: "GET", Path: "/debug/bfast/traces", Summary: "recent span trees, ring + persisted (?limit=, ?since=, ?request_id=)", Debug: true,
			Codes: []string{CodeNotFound, CodeInvalidArgument}},
		{Method: "GET", Path: "/debug/bfast/flight", Summary: "flight-recorder bundle: metrics, traces, config, profiles (tar.gz)", Debug: true,
			Codes: []string{CodeMethodNotAllowed}},
		{Method: "GET", Path: "/debug/pprof/", Summary: "pprof index", Debug: true, Pprof: true},
		{Method: "GET", Path: "/debug/pprof/cmdline", Summary: "pprof cmdline", Debug: true, Pprof: true},
		{Method: "GET", Path: "/debug/pprof/profile", Summary: "pprof CPU profile", Debug: true, Pprof: true},
		{Method: "GET", Path: "/debug/pprof/symbol", Summary: "pprof symbol resolution", Debug: true, Pprof: true},
		{Method: "GET", Path: "/debug/pprof/trace", Summary: "pprof execution trace", Debug: true, Pprof: true},
	}
}

// declaredPaths returns the unique mux patterns the table mounts under
// cfg's gating, sorted. Multiple methods on one path share a pattern.
func declaredPaths(cfg Config) []string {
	seen := make(map[string]bool)
	var out []string
	for _, rt := range RouteTable() {
		if rt.Debug && cfg.DisableDebug {
			continue
		}
		if rt.Pprof && !cfg.EnablePprof {
			continue
		}
		if !seen[rt.Path] {
			seen[rt.Path] = true
			out = append(out, rt.Path)
		}
	}
	sort.Strings(out)
	return out
}

// VerifyRoutes checks that the mux's registered patterns are exactly the
// table's declared ones for this server's configuration. New runs it at
// construction (a drifted table is a boot failure, which is what makes
// the table authoritative); the pinning test also injects a rogue route
// and asserts this catches it.
func (s *Server) VerifyRoutes() error {
	declared := declaredPaths(s.cfg)
	registered := append([]string(nil), s.registered...)
	sort.Strings(registered)
	di, ri := 0, 0
	for di < len(declared) || ri < len(registered) {
		switch {
		case ri >= len(registered) || (di < len(declared) && declared[di] < registered[ri]):
			return fmt.Errorf("server: route %q declared in RouteTable but not registered on the mux", declared[di])
		case di >= len(declared) || registered[ri] < declared[di]:
			return fmt.Errorf("server: route %q registered on the mux but not declared in RouteTable", registered[ri])
		default:
			di++
			ri++
		}
	}
	return nil
}
