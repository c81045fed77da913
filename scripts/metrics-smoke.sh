#!/bin/sh
# Boots bfast-serve on a private port, drives one batch detection so the
# kernel/scheduler/tile metric families move, then validates the /metrics
# surface in both formats: the JSON default, and the Prometheus text
# exposition (Accept negotiation and ?format= override, line syntax,
# cumulative-le bucket invariant). The set of exported metric families is
# pinned against scripts/metrics.golden so a renamed or dropped family
# fails CI; regenerate with METRICS_GOLDEN_REGEN=1 after intended changes.
# Used by `make metrics-smoke` and CI.
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:18081}
GOLDEN=${GOLDEN:-scripts/metrics.golden}
TMP=$(mktemp -d)
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

$GO build -o "$TMP/bfast-serve" ./cmd/bfast-serve
# -diag-dir so the diag.* tail-sampler and profile-capture families
# (and the slo.* gauges' exemplar path) are part of the pinned
# exposition surface too; -state-dir so the state.file.* snapshot-store
# families are (metricdoc cross-checks every registration site against
# this golden, so the boot must light up every optional subsystem that
# registers metrics).
"$TMP/bfast-serve" -addr "$ADDR" -runtime-sample 50ms -diag-dir "$TMP/diag" -state-dir "$TMP/state" >"$TMP/serve.log" 2>&1 &
PID=$!

i=0
until curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "metrics-smoke: server never became healthy" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done

# One batch detection: lights up server.*, kernel phase spans, sched loop
# skew and tile padding histograms in a single request.
series=$(awk 'BEGIN{s="";for(t=0;t<60;t++){v=0.5+0.3*sin(2*3.14159*t/23);s=s v ",";}print substr(s,1,length(s)-1)}')
out=$(curl -fsS "http://$ADDR/v1/batch" -d "{\"pixels\":[[$series],[$series]],\"history\":30}")
echo "$out" | grep -q '"status"' || { echo "metrics-smoke: batch response malformed: $out" >&2; exit 1; }
# Give the runtime sampler a tick so runtime.* gauges are populated.
sleep 0.2

# JSON stays the default exposition.
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.json"
grep -q '"server.detect.requests"' "$TMP/metrics.json" ||
    { echo "metrics-smoke: JSON default missing server.detect.requests" >&2; exit 1; }

# Prometheus text via Accept negotiation and via the ?format= override;
# the families exported must be identical either way.
curl -fsS -H 'Accept: text/plain' "http://$ADDR/metrics" >"$TMP/metrics.prom"
curl -fsS "http://$ADDR/metrics?format=prometheus" >"$TMP/metrics.prom2"
grep '^# TYPE ' "$TMP/metrics.prom" | sort >"$TMP/families"
grep '^# TYPE ' "$TMP/metrics.prom2" | sort >"$TMP/families2"
cmp -s "$TMP/families" "$TMP/families2" ||
    { echo "metrics-smoke: Accept and ?format= expositions disagree" >&2; exit 1; }

# Every non-comment line must be `name{labels} value` Prometheus syntax,
# optionally followed by an OpenMetrics exemplar suffix
# (` # {trace_id="..."} value timestamp`) on histogram bucket lines.
LINE_RE='^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9+.eE-]+( # \{[^{}]*\} -?[0-9+.eE-]+ -?[0-9+.eE-]+)?$'
bad=$(grep -v '^#' "$TMP/metrics.prom" |
    grep -Evc "$LINE_RE" || true)
if [ "$bad" -ne 0 ]; then
    echo "metrics-smoke: $bad malformed exposition lines:" >&2
    grep -v '^#' "$TMP/metrics.prom" |
        grep -Ev "$LINE_RE" >&2
    exit 1
fi

# The diagnostics layer must put at least one exemplar on a latency
# bucket: the batch request above completed with a request ID.
grep -q '# {trace_id="' "$TMP/metrics.prom" ||
    { echo "metrics-smoke: no exemplar on any histogram bucket" >&2; exit 1; }

# Cumulative-le invariant: the +Inf bucket of a histogram equals its _count.
inf=$(grep -F 'server_detect_latency_ms_bucket{le="+Inf"}' "$TMP/metrics.prom" | awk '{print $2}')
cnt=$(grep '^server_detect_latency_ms_count ' "$TMP/metrics.prom" | awk '{print $2}')
[ -n "$inf" ] && [ "$inf" = "$cnt" ] ||
    { echo "metrics-smoke: +Inf bucket ($inf) != _count ($cnt)" >&2; exit 1; }

# The families that must exist after one batch request. Pinned as a golden
# file so a silent rename/drop of a metric is caught.
if [ "${METRICS_GOLDEN_REGEN:-0}" = "1" ]; then
    cp "$TMP/families" "$GOLDEN"
    echo "metrics-smoke: regenerated $GOLDEN ($(wc -l <"$GOLDEN") families)"
else
    diff -u "$GOLDEN" "$TMP/families" || {
        echo "metrics-smoke: exported families diverge from $GOLDEN (regenerate with METRICS_GOLDEN_REGEN=1 if intended)" >&2
        exit 1
    }
fi

kill -TERM "$PID"
wait "$PID" || { echo "metrics-smoke: shutdown failed" >&2; cat "$TMP/serve.log" >&2; exit 1; }
echo "metrics-smoke: ok"
