# Standard developer workflow for the selfstab reproduction.

GO ?= go
GOFMT ?= gofmt

# Pinned external lint tools, installed by `make tools` (network
# required; local runs without them skip gracefully — see `lint`).
STATICCHECK_VERSION ?= v0.5.1
GOVULNCHECK_VERSION ?= v1.1.3

LINTBIN := bin/selfstablint

# SARIF output of `make lint-sarif`: per-unit fragments, then the merged
# 2.1.0 report code-scanning consumes.
SARIF_FRAGMENTS := lint-sarif-out
SARIF_REPORT := selfstablint.sarif

# Benchmark baseline: BENCH_3.json holds labeled runs of BENCH_PATTERN
# (parsed metrics + raw benchfmt lines, benchstat-compatible; see
# cmd/benchjson). Its first run, group-commit, holds only the service
# group-commit benchmarks; later runs add the large-n and million-node
# sharded rows. BENCH_1.json (pre-sharding) and BENCH_2.json
# (pre-group-commit) are the frozen historical baselines. bench-json
# appends a fresh labeled run; bench-diff compares a fresh run against
# the last recorded one and exits non-zero past the threshold
# (cross-machine, so advisory only); bench-gate is the blocking variant
# — it compares against a baseline measured on the same runner minutes
# earlier, so CI can fail the check on a >10% ns/op regression in a
# pinned benchmark.
BENCH_JSON := BENCH_3.json
BENCH_PATTERN ?= BenchmarkLarge|BenchmarkShard|BenchmarkServiceMutations
BENCH_PKGS ?= . ./internal/service
BENCH_LABEL ?= dev
BENCH_GATE_BASE ?= bench-base.json
BENCH_PIN ?= ^Benchmark(Large|Shard1M)_|^BenchmarkServiceMutations

.PHONY: all build vet lint lint-sarif lint-diff lint-service tools test race cover examples bench-smoke bench bench-json bench-diff bench-gate bench-trend service-test load-smoke experiments experiments-quick soak soak-quick fuzz clean

all: build vet lint test race

build:
	$(GO) build ./...

# vet also fails when gofmt would change any tracked Go file of this
# module (bench/ is a module of its own, checked by bench-smoke).
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files -z -- '*.go' ':!bench' | xargs -0 -r $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi

# lint runs the repo's custom determinism/concurrency analyzers
# (detrand, mapiter, guarded, plus the dataflow tier: purity,
# exhaustive, lockorder, the allocation/shard-isolation tier:
# noalloc, shardsafe, and the service-invariant tier: walorder,
# singlewriter, ctxflow — see docs/STATIC_ANALYSIS.md) through the
# standard `go vet -vettool` protocol, then staticcheck and govulncheck
# when installed. The custom suite is mandatory; the external tools are
# skipped with a notice if absent so offline checkouts still lint.
# Cross-package facts (purity summaries, lock-order edges, noalloc
# allocation summaries and interface contracts, walorder durable-field
# and journal-role sets, singlewriter owner sets, ctxflow durability
# obligations) ride the go command's vet fact files, so they are cached
# in GOCACHE with the rest of the vet results.
lint:
	$(GO) build -o $(LINTBIN) ./cmd/selfstablint
	$(GO) vet -vettool=$(CURDIR)/$(LINTBIN) ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (run 'make tools')"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (run 'make tools')"; \
	fi

# lint-sarif runs the custom analyzers with per-unit SARIF fragments and
# merges them into one SARIF 2.1.0 report for code scanning. The report
# is produced even when there are findings; the vet exit status is
# preserved so CI still fails on them.
lint-sarif:
	$(GO) build -o $(LINTBIN) ./cmd/selfstablint
	@rm -rf $(SARIF_FRAGMENTS) && mkdir -p $(SARIF_FRAGMENTS)
	@status=0; \
	$(GO) vet -vettool=$(CURDIR)/$(LINTBIN) -sarifdir=$(CURDIR)/$(SARIF_FRAGMENTS) ./... || status=$$?; \
	./$(LINTBIN) -sarif $(SARIF_FRAGMENTS) -sarifroot $(CURDIR) > $(SARIF_REPORT); \
	echo "lint-sarif: wrote $(SARIF_REPORT)"; \
	exit $$status

# lint-diff prints only the custom-analyzer diagnostics that land in
# files this branch touches relative to origin/main (main itself is kept
# lint-clean by CI, so these are exactly the new findings). Falls back
# to a notice when origin/main is unavailable (shallow or detached
# checkouts) — run `make lint` for the full run.
lint-diff:
	$(GO) build -o $(LINTBIN) ./cmd/selfstablint
	@base=$$(git merge-base HEAD origin/main 2>/dev/null); \
	if [ -z "$$base" ]; then \
		echo "lint-diff: cannot resolve origin/main; run 'make lint' for the full suite"; exit 0; \
	fi; \
	changed=$$(git diff --name-only $$base -- '*.go'); \
	if [ -z "$$changed" ]; then echo "lint-diff: no Go files changed vs origin/main"; exit 0; fi; \
	out=$$($(GO) vet -vettool=$(CURDIR)/$(LINTBIN) ./... 2>&1 | grep -v '^#' || true); \
	new=''; \
	for f in $$changed; do \
		hits=$$(printf '%s\n' "$$out" | grep -F "$$f:"); \
		if [ -n "$$hits" ]; then new="$$new$$hits\n"; fi; \
	done; \
	if [ -n "$$new" ]; then printf "$$new"; exit 1; \
	else echo "lint-diff: no new diagnostics vs origin/main"; fi

# lint-service runs the full analyzer suite scoped to the crash-recovery
# surface — the service layer plus the binaries on top of it. This is
# the fast inner loop while editing internal/service: the
# service-invariant tier (walorder, singlewriter, ctxflow) gets its
# dependencies' facts built by the go command on demand, so the run
# stays a few seconds instead of the whole-repo sweep.
lint-service:
	$(GO) build -o $(LINTBIN) ./cmd/selfstablint
	$(GO) vet -vettool=$(CURDIR)/$(LINTBIN) ./internal/service/... ./cmd/selfstabd/... ./cmd/stabload/...

# tools installs the pinned external linters (see tools.go for why the
# versions live here rather than in go.mod).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# examples builds every examples/* program and runs it with its default
# flags. Each one verifies its own result and exits non-zero (log.Fatal)
# when the verification fails; stdout is dropped, stderr kept.
examples:
	@rm -rf bin/examples
	$(GO) build -o bin/examples/ ./examples/...
	@for ex in bin/examples/*; do \
		echo "examples: $$ex"; \
		$$ex > /dev/null || exit 1; \
	done

# bench-smoke vets and unit-tests the end-to-end benchmark module in
# bench/, which links this module's engine, fault and service packages
# through a replace directive.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Append a labeled run of the large-n benchmarks to the committed
# baseline: make bench-json BENCH_LABEL=my-change
bench-json:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem -run='^$$' $(BENCH_PKGS) > bench-out.txt
	$(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -merge $(BENCH_JSON) < bench-out.txt > $(BENCH_JSON).tmp
	mv $(BENCH_JSON).tmp $(BENCH_JSON)
	rm -f bench-out.txt

# Compare a fresh run against the last recorded baseline run. Exits 1 on
# any >1.25x ns/op regression; CI treats that as a warning, not a gate
# (the committed baseline was measured on a different machine, so ns/op
# ratios against it are too noisy to block merges on).
bench-diff:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem -run='^$$' $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -diff $(BENCH_JSON)

# Blocking regression gate: compare a fresh run against a baseline
# recorded on this same machine (CI measures origin/main in a worktree
# right before this), failing on any pinned benchmark >10% slower.
# Record the baseline with:
#   git worktree add /tmp/base origin/main && cd /tmp/base && \
#   make bench-json BENCH_JSON=$(CURDIR)/$(BENCH_GATE_BASE)
bench-gate:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem -run='^$$' $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -gate $(BENCH_GATE_BASE) -pin '$(BENCH_PIN)'

# Per-benchmark ns/op + allocs history across every committed baseline
# file (BENCH_1.json, BENCH_2.json, ...), oldest first.
bench-trend:
	$(GO) run ./cmd/benchjson -trend

# The selfstabd resilience tier: daemon, service layer, and load
# generator under the race detector. This includes the chaos test (fault
# schedule via the HTTP API with drops/dups/reorders and a kill/restart
# mid-schedule) and the crash-recovery replay pins.
service-test:
	$(GO) test -race -count=1 ./internal/service/... ./cmd/selfstabd/... ./cmd/stabload/...

# Non-blocking load smoke: hammer an in-process daemon with tight
# per-tenant limits and write the latency/status report. The run fails
# only if the generator itself fails; CI uploads load-smoke.json as an
# artifact so p50/p99 and the 429/503 mix are reviewable per commit.
load-smoke:
	$(GO) run ./cmd/stabload -duration 5s -workers 8 -tenants 4 -n 64 \
		-rate 50 -burst 20 -queue 8 -out load-smoke.json
	@cat load-smoke.json

# Regenerate every reproduction table (EXPERIMENTS.md is this output).
experiments:
	$(GO) run ./cmd/experiments -markdown

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Fault-injection soak campaigns (see DESIGN.md, "Fault model &
# recovery verification"). Failing schedules are shrunk to minimal
# repros and written to soak-out/. soak-quick is the CI-sized, race-
# enabled budget.
soak:
	$(GO) run ./cmd/soak -seed 1 -out soak-out

soak-quick:
	$(GO) run -race ./cmd/soak -quick -seed 1 -out soak-out

fuzz:
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzGraphJSON -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzSMMMove -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzSMIMove -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzShardPartition -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzGraphStore -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzUnitDisk -fuzztime=30s ./internal/graph/
	$(GO) test -fuzz=FuzzDenseRounds -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzJournalRecover -fuzztime=30s ./internal/service/
	$(GO) test -fuzz=FuzzCheckpointDrift -fuzztime=30s ./internal/service/
	$(GO) test -fuzz=FuzzTenantMeta -fuzztime=30s ./internal/service/
	$(GO) test -fuzz=FuzzSMMChecker -fuzztime=30s ./internal/faults/
	$(GO) test -fuzz=FuzzSMIChecker -fuzztime=30s ./internal/faults/
	$(GO) test -fuzz=FuzzLocalChecker -fuzztime=30s ./internal/faults/

clean:
	$(GO) clean ./...
	rm -rf bin $(SARIF_FRAGMENTS) $(SARIF_REPORT) bench-out.txt $(BENCH_JSON).tmp bench-base.json load-smoke.json
