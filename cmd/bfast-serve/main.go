// Command bfast-serve runs the BFAST-Monitor HTTP service: per-pixel
// detection, trace and batch endpoints over JSON (null = missing value),
// with metrics at /metrics (JSON, or Prometheus text via Accept /
// ?format=prometheus), request span trees at /debug/bfast/traces, and
// structured logs on stderr (-log-level, -log-format).
//
// Usage:
//
//	bfast-serve -addr :8080
//	curl -s localhost:8080/v1/detect -d '{"series":[0.8,0.81,null,0.79,...],"history":113}'
//
// SIGINT/SIGTERM triggers a graceful shutdown: /v1/healthz flips to 503,
// listeners close, and in-flight requests drain (bounded by -drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bfast"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "detection workers per request (0 = GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent compute requests before 429 (0 = 2x GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 0, "max pixels per /v1/batch request (0 = default 65536)")
	maxBody := flag.Int64("max-body", 0, "max request body bytes (0 = default 256 MiB)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	noDebug := flag.Bool("no-debug", false, "disable /metrics, /debug/bfast and /debug/pprof")
	retryAfter := flag.Int("retry-after", 0, "Retry-After seconds on 429 (0 = default 1)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	runtimeSample := flag.Duration("runtime-sample", 10*time.Second, "runtime.* gauge sampling interval (0 disables)")
	stateDir := flag.String("state-dir", "", "directory for NRT session snapshots and journals; sessions survive restarts when set, live in memory otherwise")
	snapshotEvery := flag.Int("snapshot-every", 0, "persist an NRT session every k-th observe (0 = default 1 = every observe; negative disables automatic snapshots)")
	maxSessions := flag.Int("max-sessions", 0, "max live NRT sessions before /v1/fit returns 429 (0 = default 64)")
	diagDir := flag.String("diag-dir", "", "diagnostics directory: tail-sampled traces persist to <dir>/traces*.jsonl and anomaly-captured profiles to <dir>/profiles; empty disables persistence and profile capture")
	diagSlowMs := flag.Int("diag-slow-ms", 0, "latency above which a completed trace is tail-sampled to disk (0 = default 500; negative disables the slow rule)")
	noSLO := flag.Bool("no-slo", false, "disable the slo.* burn-rate gauges and exemplars")
	sloLatencyMs := flag.Float64("slo-latency-ms", 0, "per-endpoint latency objective in ms (0 = default 500)")
	sloTarget := flag.Float64("slo-target", 0, "required fast fraction of the latency objective, in (0,1) (0 = default 0.99)")
	flag.Parse()

	logger, err := bfast.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfast-serve:", err)
		os.Exit(2)
	}

	srv, err := bfast.NewServer(bfast.ServerConfig{
		Workers:            *workers,
		MaxConcurrent:      *maxConcurrent,
		MaxBatchPixels:     *maxBatch,
		MaxBodyBytes:       *maxBody,
		DisableDebug:       *noDebug,
		RetryAfterSeconds:  *retryAfter,
		Logger:             logger,
		EnablePprof:        *enablePprof,
		SampleRuntimeEvery: *runtimeSample,
		NRT: bfast.NRTConfig{
			StateDir:      *stateDir,
			SnapshotEvery: *snapshotEvery,
			MaxSessions:   *maxSessions,
		},
		Diag: bfast.DiagConfig{
			Dir:           *diagDir,
			SlowThreshold: time.Duration(*diagSlowMs) * time.Millisecond,
		},
		SLO: bfast.SLOConfig{
			Disabled:  *noSLO,
			LatencyMs: *sloLatencyMs,
			Target:    *sloTarget,
		},
	})
	if err != nil {
		logger.Error("bfast-serve startup", "err", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//lint:allow golifecycle -- joined via the buffered errc receive in the select below; the goroutine's lifetime is the process's lifetime by design
	go func() {
		logger.Info("bfast-serve listening",
			"addr", *addr, "pprof", *enablePprof, "state_dir", *stateDir, "diag_dir", *diagDir,
			"endpoints", "POST /v1/detect /v1/trace /v1/batch /v1/fit /v1/observe; GET /v1/sessions /metrics /debug/bfast/traces /debug/bfast/flight")
		errc <- srv.ListenAndServe(*addr)
	}()

	select {
	case err := <-errc:
		// Listener failed before any shutdown was requested.
		logger.Error("bfast-serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("bfast-serve draining", "timeout", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("bfast-serve shutdown", "err", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("bfast-serve", "err", err)
		os.Exit(1)
	}
	logger.Info("bfast-serve stopped")
}
