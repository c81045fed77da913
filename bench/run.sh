#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source inside
# the checkout, then run it with the given flags. The Go build cache, the
# toolchain's config directory and the binary all live under
# .bench_build/, so nothing outside the checkout is written and nothing
# is downloaded. By hand, `go run ./bench` does the same with the user's
# own cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $PWD: the program under test is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
# With a fresh config directory the go command starts a detached
# telemetry child that outlives it; the mode file stops that, so that
# no process is left behind when this script returns.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	go build -o "$build/bfast-bench" ./bench
exec "$build/bfast-bench" "$@"
