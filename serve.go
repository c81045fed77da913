package bfast

import (
	"io"
	"log/slog"

	"bfast/internal/obs"
	"bfast/internal/server"
)

// ServerConfig parameterizes the HTTP service; the zero value is
// production-ready. See the field docs on internal/server.Config.
type ServerConfig = server.Config

// NRTConfig groups the stateful near-real-time serving knobs
// (ServerConfig.NRT): snapshot directory, snapshot cadence, session
// limits.
type NRTConfig = server.NRTConfig

// DiagConfig groups the production-diagnostics knobs
// (ServerConfig.Diag): the diagnostics directory for tail-sampled trace
// persistence and anomaly-captured profiles.
type DiagConfig = server.DiagConfig

// SLOConfig groups the per-endpoint latency objectives
// (ServerConfig.SLO) behind the slo.* burn-rate gauges.
type SLOConfig = server.SLOConfig

// Server is the BFAST-Monitor HTTP service: an http.Handler exposing
// /v1/detect, /v1/trace, /v1/batch, /v1/healthz, /metrics (JSON and
// Prometheus text), /debug/bfast, /debug/bfast/traces and
// /debug/bfast/flight, with context
// cancellation plumbed into the detection kernels, concurrency limiting
// with 429 backpressure, request-ID span tracing and graceful Shutdown.
// cmd/bfast-serve is a thin wrapper around this type.
type Server = server.Server

// HeaderRequestID is the correlation header honored and returned by the
// service; see internal/server.HeaderRequestID.
const HeaderRequestID = server.HeaderRequestID

// NewServer builds the HTTP service from cfg. It is the single
// constructor shared by library embedders and cmd/bfast-serve. It
// errors when the NRT state directory cannot be opened or the route
// table is internally inconsistent.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewLogger builds a structured logger for ServerConfig.Logger and
// PipelineConfig.Logger: level is debug/info/warn/error (default info),
// format is text or json (default text).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}
