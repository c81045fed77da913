# Tier-1 verification targets. `make ci` is the full gate; `make lint`
# runs gofmt, go vet and the repo's own analyzer suite (bfast-lint:
# nanguard, kernelalloc, ctxfirst, spanpair, lockpair, golifecycle,
# atomicguard, metricdoc — see DESIGN.md §8); `make
# lint-selfcheck` proves the lint driver itself still finds the known
# fixture diagnostics; `make race` exercises every package (root, cmd
# and internal) under the race detector; `make fuzz-smoke` runs each
# native fuzz target for ~10s over its corpus (dates.ParseDate, the
# /v1/batch, /v1/fit and /v1/observe decode paths, the request-number
# reader against its old scan plus strconv.ParseFloat, the float writer
# against encoding/json, the range-rendered
# observe and batch replies against their one-range rendering and
# encoding/json, the BFSS session-snapshot decoder, the BFJF
# journal-frame decoder, the tile lane kernels against their scalar
# oracles, core.DetectBatch over random sequences of shapes against
# scalar Detect, the cube and GeoTIFF file decoders, and the
# tail-sampled trace log's read-back);
# `make bench-ledger` runs the repository's benchmark (bench/, the command
# BENCHMARK.json names) and `make bench-compare OLD=... NEW=...` judges
# two of its `-json` reports row by row against BENCHMARK.json's bounds,
# failed counts and result digests; `make serve-smoke` boots
# bfast-serve, hits /v1/healthz and /metrics, and verifies a clean
# SIGTERM shutdown; `make metrics-smoke` validates both /metrics
# expositions (JSON default, Prometheus text) against the pinned family
# golden file; `make nrt-smoke` fits a
# scene, observes dates across a SIGTERM restart from the state
# directory, and diffs the verdicts against one offline /v1/batch run;
# `make diag-smoke` boots bfast-serve with a diagnostics directory,
# drives slow + error traffic, and asserts tail-sampled traces survive a
# restart, exemplars land on the latency buckets, the slo.* gauges are
# exported, and /debug/bfast/flight streams a complete bundle;
# `make bench-smoke` runs every benchmark body of the kernel packages,
# of the server's number codec and of the comparators in
# internal/baseline once (`go test ./...`
# compiles benchmarks but never runs them).

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci lint bfast-lint lint-selfcheck vet fmt-check build test race fuzz-smoke vulncheck vulncheck-ci bench bench-smoke bench-ledger bench-compare serve-smoke metrics-smoke nrt-smoke diag-smoke

ci: lint lint-selfcheck build race test bench-smoke fuzz-smoke serve-smoke metrics-smoke nrt-smoke diag-smoke

lint: vet fmt-check bfast-lint

bfast-lint:
	$(GO) run ./cmd/bfast-lint ./...

lint-selfcheck:
	./scripts/lint-selfcheck.sh

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseDate -fuzztime=$(FUZZTIME) ./internal/dates/
	$(GO) test -run='^$$' -fuzz=FuzzBatchDecode -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzFitDecode -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzObserveDecode -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzReqNumber -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzAppendJSONFloat -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzReplyRanges -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSession -fuzztime=$(FUZZTIME) ./internal/state/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeJournal -fuzztime=$(FUZZTIME) ./internal/state/
	$(GO) test -run='^$$' -fuzz=FuzzLaneKernels -fuzztime=$(FUZZTIME) ./internal/tile/
	$(GO) test -run='^$$' -fuzz=FuzzDetectBatchShapes -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzReadCube -fuzztime=$(FUZZTIME) ./internal/cube/
	$(GO) test -run='^$$' -fuzz=FuzzReadGeoTIFF -fuzztime=$(FUZZTIME) ./internal/geotiff/
	$(GO) test -run='^$$' -fuzz=FuzzReadBack -fuzztime=$(FUZZTIME) ./internal/obs/

# vulncheck is advisory locally: govulncheck is not vendored, so the
# target reports and succeeds when the tool (or network) is
# unavailable. CI runs vulncheck-ci instead, where the workflow has
# installed a pinned govulncheck and findings block the merge gate.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: findings above are advisory"; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (advisory)"; \
	fi

vulncheck-ci:
	govulncheck ./...

bench:
	$(GO) test -bench=. -benchmem .

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/core ./internal/tile ./internal/linalg ./internal/series ./internal/server ./internal/baseline

bench-ledger:
	bash bench/run.sh

bench-compare:
	@if [ -z "$(OLD)" ] || [ -z "$(NEW)" ]; then \
		echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; \
	fi
	$(GO) run ./bench -compare "$(OLD)" "$(NEW)"

serve-smoke:
	./scripts/serve-smoke.sh

metrics-smoke:
	./scripts/metrics-smoke.sh

nrt-smoke:
	./scripts/nrt-smoke.sh

diag-smoke:
	./scripts/diag-smoke.sh
