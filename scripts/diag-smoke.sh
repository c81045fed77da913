#!/bin/sh
# End-to-end smoke of the production-diagnostics layer (DESIGN.md §7):
# boots bfast-serve with a diagnostics directory and an aggressive slow
# threshold, drives normal + slow + error traffic, and asserts that
#   - tail-sampled traces persist to <diag-dir>/traces.jsonl and are
#     served (merged with the ring) by /debug/bfast/traces;
#   - a persisted trace survives a SIGTERM restart and comes back with
#     source "disk" and its sampling reason;
#   - a trace is a flat list of span records: persisted lines carry a
#     "spans" array, and the batch trace's core.detect_batch record
#     names its detect record as parent;
#   - the latency histograms carry OpenMetrics exemplars whose trace ID
#     resolves via /debug/bfast/traces?request_id=;
#   - the slo.* burn-rate gauge families are exported;
#   - GET /debug/bfast/flight streams a non-empty tar.gz holding the
#     metrics, traces, config and manifest members.
# Used by `make diag-smoke` and CI.
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:18084}
TMP=$(mktemp -d)
DIAG="$TMP/diag"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

$GO build -o "$TMP/bfast-serve" ./cmd/bfast-serve

boot() {
    # -diag-slow-ms 1: anything slower than 1ms tail-samples, so the
    # batch request below persists deterministically as "slow".
    "$TMP/bfast-serve" -addr "$ADDR" -diag-dir "$DIAG" -diag-slow-ms 1 \
        >"$TMP/serve.log" 2>&1 &
    PID=$!
    i=0
    until curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "diag-smoke: server never became healthy" >&2
            cat "$TMP/serve.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}
boot

# Traffic: one real batch detection (slow by the 1ms threshold), and one
# malformed request (a guaranteed "error" tail sample) under a known ID.
series=$(awk 'BEGIN{s="";for(t=0;t<60;t++){v=0.5+0.3*sin(2*3.14159*t/23);s=s v ",";}print substr(s,1,length(s)-1)}')
out=$(curl -fsS "http://$ADDR/v1/batch" -H 'X-Request-ID: diag-smoke-batch' \
    -d "{\"pixels\":[[$series],[$series]],\"history\":30}")
echo "$out" | grep -q '"status"' || { echo "diag-smoke: batch response malformed: $out" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/detect" \
    -H 'X-Request-ID: diag-smoke-err' -d '{"history":5}')
[ "$code" = "400" ] || { echo "diag-smoke: error request returned $code, want 400" >&2; exit 1; }

# The tail sampler wrote both survivors to the trace log.
[ -s "$DIAG/traces.jsonl" ] || { echo "diag-smoke: $DIAG/traces.jsonl missing or empty" >&2; exit 1; }
grep -q '"request_id":"diag-smoke-err"' "$DIAG/traces.jsonl" ||
    { echo "diag-smoke: error trace not persisted" >&2; exit 1; }
grep '"request_id":"diag-smoke-err"' "$DIAG/traces.jsonl" | grep -q '"spans":\[{"id":1,' ||
    { echo "diag-smoke: persisted trace has no spans array" >&2; exit 1; }

# Exemplar on a latency bucket, resolving back to the batch trace.
curl -fsS "http://$ADDR/metrics?format=prometheus" >"$TMP/metrics.prom"
grep -q '# {trace_id="diag-smoke-batch"}' "$TMP/metrics.prom" ||
    { echo "diag-smoke: no exemplar for the batch request in /metrics" >&2; exit 1; }
grep -q '^slo_batch_burn_rate_5m_milli ' "$TMP/metrics.prom" ||
    { echo "diag-smoke: slo.* burn-rate gauges missing" >&2; exit 1; }
curl -fsS "http://$ADDR/debug/bfast/traces?request_id=diag-smoke-batch" >"$TMP/batch-trace.json" ||
    { echo "diag-smoke: exemplar trace ID does not resolve" >&2; exit 1; }
# Records encode as {"id":I,"parent":P,"name":N,...}, fields in that order.
detect=$(grep -o '"id":[0-9]*,"parent":[0-9]*,"name":"detect"' "$TMP/batch-trace.json" | sed 's/^"id":\([0-9]*\),.*/\1/')
[ -n "$detect" ] || { echo "diag-smoke: batch trace has no detect record" >&2; cat "$TMP/batch-trace.json" >&2; exit 1; }
grep -q "\"parent\":$detect,\"name\":\"core.detect_batch\"" "$TMP/batch-trace.json" ||
    { echo "diag-smoke: core.detect_batch is not a child of detect (id $detect)" >&2; cat "$TMP/batch-trace.json" >&2; exit 1; }

# Flight bundle: one GET, a well-formed non-empty tar.gz.
curl -fsS "http://$ADDR/debug/bfast/flight" >"$TMP/flight.tar.gz"
[ -s "$TMP/flight.tar.gz" ] || { echo "diag-smoke: empty flight bundle" >&2; exit 1; }
tar -tzf "$TMP/flight.tar.gz" >"$TMP/flight.members"
for member in metrics.json metrics.prom traces_ring.json traces_persisted.jsonl config.json runtime.json manifest.json; do
    grep -qx "$member" "$TMP/flight.members" ||
        { echo "diag-smoke: flight bundle missing $member:" >&2; cat "$TMP/flight.members" >&2; exit 1; }
done

# Restart: the persisted error trace must come back from disk.
kill -TERM "$PID"
wait "$PID" || { echo "diag-smoke: shutdown failed" >&2; cat "$TMP/serve.log" >&2; exit 1; }
boot
curl -fsS "http://$ADDR/debug/bfast/traces" >"$TMP/traces.json"
grep -q '"request_id":"diag-smoke-err"' "$TMP/traces.json" ||
    { echo "diag-smoke: persisted trace lost across restart" >&2; cat "$TMP/traces.json" >&2; exit 1; }
grep -q '"source":"disk"' "$TMP/traces.json" ||
    { echo "diag-smoke: restarted traces carry no disk entries" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID" || { echo "diag-smoke: second shutdown failed" >&2; cat "$TMP/serve.log" >&2; exit 1; }
echo "diag-smoke: ok"
