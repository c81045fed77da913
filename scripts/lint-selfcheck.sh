#!/bin/sh
# lint-selfcheck.sh — prove the bfast-lint driver itself still works.
#
# A lint gate that silently stops finding anything is worse than no
# gate: `make ci` would keep passing while the analyzers rot. This
# script runs the real bfast-lint binary (the standalone driver, not
# the test harness) over the analyzer fixtures in
# internal/analysis/testdata/src and asserts the known diagnostics
# come out: one sentinel finding per analyzer, the exact total, a
# clean exit on a clean package, and a well-formed -json rendering.
#
# The fixtures import fixture-local fake packages ("obs", …)
# by bare path, so they are loaded GOPATH-style: the testdata/src tree
# is symlinked in as a GOPATH src root and the driver runs with
# GO111MODULE=off. That is the same source the analysistest harness
# type-checks, but through the production `go list -export` loader —
# the path a broken Load/Check/Finish wiring would break.
#
# When fixtures change, EXPECT_TOTAL below must be updated to match —
# deliberately, so fixture drift is a conscious decision.
set -eu

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

EXPECT_TOTAL=44

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() {
	echo "lint-selfcheck: FAIL: $*" >&2
	exit 1
}

go build -o "$TMP/bfast-lint" ./cmd/bfast-lint

mkdir -p "$TMP/gopath"
ln -s "$ROOT/internal/analysis/testdata/src" "$TMP/gopath/src"

run_lint() {
	(
		cd "$TMP/gopath/src" &&
			GO111MODULE=off GOWORK=off GOPATH="$TMP/gopath" \
				"$TMP/bfast-lint" "$@"
	)
}

# --- full fixture sweep: exit 1, every analyzer fires, exact total ---
status=0
run_lint ./... >"$TMP/out.txt" 2>&1 || status=$?
[ "$status" -eq 1 ] || {
	cat "$TMP/out.txt" >&2
	fail "fixture sweep exited $status, want 1 (findings)"
}

# One sentinel diagnostic per analyzer (plus the //lint:allow driver
# and metricdoc's Finish direction): if any stops firing, the driver
# or the analyzer regressed.
while IFS='|' read -r sentinel label; do
	grep -qF "$sentinel" "$TMP/out.txt" || {
		cat "$TMP/out.txt" >&2
		fail "missing $label sentinel: $sentinel"
	}
done <<'EOF'
float64 values compared with ==|nanguard
kernels are allocation-free|kernelalloc
the hot-path contract is ctx-first|ctxfirst
span from obs.StartSpan is never Ended|spanpair
span from obs.StartSpan may leak|spanpair(path)
is not released on every path|lockpair
self-deadlock|lockpair(held)
fire-and-forget goroutine|golifecycle
mixed access is a data race|atomicguard
is not pinned in scripts/metrics.golden|metricdoc(code->golden)
golden family "svc_orphaned_total" has no registration site|metricdoc(golden->code)
stale //lint:allow|allow(stale)
the reason is mandatory|allow(malformed)
EOF

# The summary line ("bfast-lint: N finding(s)") carries no position;
# count only "path:line:col: msg (analyzer)" lines (Finish findings
# render as path:0:0).
total="$(grep -cE '^[^ ]+:[0-9]+:[0-9]+: ' "$TMP/out.txt" || true)"
[ "$total" -eq "$EXPECT_TOTAL" ] || {
	cat "$TMP/out.txt" >&2
	fail "fixture sweep produced $total findings, want $EXPECT_TOTAL (fixtures changed? update EXPECT_TOTAL)"
}

# --- clean package: exit 0, no output ---
status=0
run_lint ./obs >"$TMP/clean.txt" 2>&1 || status=$?
[ "$status" -eq 0 ] || {
	cat "$TMP/clean.txt" >&2
	fail "clean fixture package ./obs exited $status, want 0"
}
[ ! -s "$TMP/clean.txt" ] || {
	cat "$TMP/clean.txt" >&2
	fail "clean fixture package ./obs produced output"
}

# --- -json mode: exit 1, one object per finding, fields present ---
status=0
run_lint -json ./... >"$TMP/out.json" 2>&1 || status=$?
[ "$status" -eq 1 ] || {
	cat "$TMP/out.json" >&2
	fail "-json sweep exited $status, want 1"
}
jtotal="$(grep -c '"analyzer":' "$TMP/out.json" || true)"
[ "$jtotal" -eq "$EXPECT_TOTAL" ] || {
	cat "$TMP/out.json" >&2
	fail "-json sweep rendered $jtotal findings, want $EXPECT_TOTAL"
}
grep -q '"message":' "$TMP/out.json" || fail "-json output missing message fields"
grep -q '"file":' "$TMP/out.json" || fail "-json output missing file fields"

echo "lint-selfcheck: OK ($EXPECT_TOTAL findings, clean package clean, json well-formed)"
