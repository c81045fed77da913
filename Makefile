# Tier-1 verification targets. `make ci` is the full gate; `make lint`
# runs gofmt, go vet and the repo's own analyzer suite (bfast-lint:
# nanguard, kernelalloc, ctxfirst, spanpair, nodeprecated, lockpair,
# golifecycle, atomicguard, metricdoc — see DESIGN.md §8); `make
# lint-selfcheck` proves the lint driver itself still finds the known
# fixture diagnostics; `make race` exercises every package (root, cmd
# and internal) under the race detector; `make fuzz-smoke` runs each
# native fuzz target for
# ~10s over its corpus (dates.ParseDate and the /v1/batch decode path);
# `make bench-smoke` runs the tiles before/after experiment at a tiny
# sample (plain, then through the startup autotuner) so CI catches
# harness regressions without paying benchmark time; `make
# bench-ledger` runs the repository's benchmark (bench/, the command
# BENCHMARK.json names) and `make bench-compare OLD=... NEW=...` judges
# two of its `-json` reports row by row against BENCHMARK.json's bounds,
# failed counts and result digests; `make serve-smoke` boots
# bfast-serve, hits /v1/healthz and /metrics, and verifies a clean
# SIGTERM shutdown; `make metrics-smoke` validates both /metrics
# expositions (JSON default, Prometheus text) against the pinned family
# golden file; `make coalesce-smoke` boots bfast-serve with and without
# -coalesce, fires the same concurrent small /v1/batch requests at both
# and asserts the responses are byte-identical; `make nrt-smoke` fits a
# scene, observes dates across a SIGTERM restart from the state
# directory, and diffs the verdicts against one offline /v1/batch run;
# `make diag-smoke` boots bfast-serve with a diagnostics directory,
# drives slow + error traffic, and asserts tail-sampled traces survive a
# restart, exemplars land on the latency buckets, the slo.* gauges are
# exported, and /debug/bfast/flight streams a complete bundle.

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci lint bfast-lint lint-selfcheck vet fmt-check build test race fuzz-smoke vulncheck vulncheck-ci bench bench-smoke bench-ledger bench-compare serve-smoke metrics-smoke coalesce-smoke nrt-smoke diag-smoke

ci: lint lint-selfcheck build race test fuzz-smoke coalesce-smoke nrt-smoke diag-smoke

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
	$(GO) run ./cmd/bfast-bench -exp tiles -sample 64 -json > /dev/null
	$(GO) run ./cmd/bfast-bench -exp tune -sample 64 -autotune -json > /dev/null

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

coalesce-smoke:
	./scripts/coalesce-smoke.sh

nrt-smoke:
	./scripts/nrt-smoke.sh

diag-smoke:
	./scripts/diag-smoke.sh
