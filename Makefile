# Local targets mirror .github/workflows/ci.yml exactly, so `make ci`
# reproduces the gate a PR must pass. The workflow runs three parallel
# jobs; the union of their steps is what `ci` chains serially:
#
#   lint job        -> fmt-check vet
#   test job        -> build test race vt-test benchmark-test
#   experiments job -> bench-smoke ci-snapshot elasticity-smoke
#                      heterogeneity-smoke scale-smoke cells-smoke
#                      cells-determinism obs-smoke obs-determinism
#                      overload-smoke batch-smoke batch-determinism
#                      chaos-smoke chaos-determinism
#
# (bench-regress and vuln stay advisory in both places.)
#
# Every smoke target writes `BENCH_<exp>.ci*.json` — git-ignored twins —
# never a committed `BENCH_<exp>.json`: `make ci` leaves the tree clean.

GO ?= go

# Hot-path benchmarks compared by bench-save / bench-compare.
BENCH_PATTERN ?= BenchmarkEngineFire|BenchmarkEngineCancel|BenchmarkScheduleDecision|BenchmarkScheduleRound1024|BenchmarkLaunchComplete1024|BenchmarkStreamingReplay|BenchmarkWorkloadBuild|BenchmarkRouterRoute|BenchmarkMultiCellReplay|BenchmarkResNet18PredictB1|BenchmarkConv2D

.PHONY: all build test race vt-test benchmark-test vet fmt fmt-check bench bench-smoke snapshot ci-snapshot elasticity-smoke heterogeneity-smoke scale-smoke cells-smoke cells-determinism obs-smoke obs-determinism overload-smoke batch-smoke batch-determinism chaos-smoke chaos-determinism bench-save bench-compare bench-regress vuln ci

all: build

build:
	$(GO) build ./...

# Without -race as well as with it: the allocation gates (the live
# Predict bound, the inference handler, the nn workspace tests) skip
# themselves under -race, where sync.Pool drops items, so the race run
# alone never executes them. This is also ROADMAP's tier-1 command.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The virtual-time suite: tests behind `//go:build goexperiment.synctest`
# run the live path on testing/synctest's synthetic clock (in GOROOT since
# go1.24, no download), so outcomes a contended host could void on the wall
# clock — the overload sweep's shed count and p99 divergence — are
# reproducible. Tier-1 (`make test`) never compiles these files.
vt-test:
	GOEXPERIMENT=synctest $(GO) test ./internal/experiments -run VirtualTime

# The acceptance harness (BENCHMARK.json) is its own module, so ./...
# above never builds it: vet and test it here, or a rename of an
# internal/* function it pins breaks it with every other gate green.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Full benchmark suite: regenerates every table/figure series.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One iteration per benchmark: the CI smoke pass.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable perf snapshot (schema in EXPERIMENTS.md). The cell
# sweep is not part of `-exp all`; its committed artifact is the
# cells-smoke command with `-json BENCH_cells.json`.
snapshot:
	$(GO) run ./cmd/faas-bench -exp all -json BENCH_baseline.json

# The same snapshot CI produces (uploaded as an artifact there).
ci-snapshot:
	$(GO) run ./cmd/faas-bench -exp fig4 -json BENCH_ci.json

# Short-mode elasticity scenario (fixed vs autoscaled fleet), mirrored in
# CI as the "elasticity smoke" step.
elasticity-smoke:
	$(GO) run ./cmd/faas-bench -exp elasticity -short -json BENCH_elasticity.json

# Short-mode heterogeneity scenario (homogeneous vs mixed fleets under
# cost-aware tiered scaling), mirrored in CI as the "heterogeneity
# smoke" step.
heterogeneity-smoke:
	$(GO) run ./cmd/faas-bench -exp heterogeneity -short -json BENCH_heterogeneity.ci.json

# Short-mode scale scenario (streaming replay at 64/256 GPUs), mirrored
# in CI as the "scale smoke" step; the full grid — 1024 GPUs × hour-long
# traces — runs in `make snapshot`.
scale-smoke:
	$(GO) run ./cmd/faas-bench -exp scale -short -json BENCH_scale.json

# Short-mode multi-cell sweep ({1,4,16} cells × router policy at
# 1024/4096 GPUs), mirrored in CI as the "cells smoke" step. The full
# grid adds the 16384-GPU column (drop -short).
cells-smoke:
	$(GO) run ./cmd/faas-bench -exp cells -short -workers 8 -json BENCH_cells.ci.json -det-json BENCH_cells.ci.det.json

# The CI determinism gate: the multi-cell sweep must produce
# byte-identical canonical snapshots at any worker count. Reuses the
# workers=8 canonical twin cells-smoke wrote, re-runs the sweep at
# -workers 1, and fails on any byte difference — two sweep executions
# total.
cells-determinism: cells-smoke
	$(GO) run ./cmd/faas-bench -exp cells -short -workers 1 -det-json /tmp/gpufaas_cells_w1.json
	cmp /tmp/gpufaas_cells_w1.json BENCH_cells.ci.det.json
	@echo "multi-cell determinism gate: snapshots byte-identical across worker counts"

# Short-mode observability run (fully instrumented K=1 vs K=16 at 1024
# GPUs: lifecycle trace, latency decomposition, time-series), mirrored
# in CI as the "obs smoke" step. BENCH_obs.ci.trace.json opens in
# Perfetto.
obs-smoke:
	$(GO) run ./cmd/faas-bench -exp obs -short -workers 8 -json BENCH_obs.ci.json -det-json BENCH_obs.ci.det.json -trace BENCH_obs.ci.trace.json

# The observability determinism gate: the instrumented sweep AND its
# rendered trace-event export must be byte-identical at any worker
# count. Reuses the workers=8 twins obs-smoke wrote and re-runs at
# -workers 1.
obs-determinism: obs-smoke
	$(GO) run ./cmd/faas-bench -exp obs -short -workers 1 -det-json /tmp/gpufaas_obs_w1.json -trace /tmp/gpufaas_obs_w1.trace.json
	cmp /tmp/gpufaas_obs_w1.json BENCH_obs.ci.det.json
	cmp /tmp/gpufaas_obs_w1.trace.json BENCH_obs.ci.trace.json
	@echo "observability determinism gate: snapshot and trace byte-identical across worker counts"

# Short-mode overload benchmark (live serving path past saturation,
# admission control on vs off), mirrored in CI as the "overload smoke"
# step. Wall-clock rows: never part of the determinism gates. Writes to
# a fresh file, as CI does, so the committed BENCH_overload.json survives
# as the baseline for the advisory comparison.
overload-smoke:
	$(GO) run ./cmd/faas-bench -exp overload -short -json BENCH_overload.ci.json

# Short-mode batching frontier sweep (policy × shape × MaxBatch plus the
# linger rows), mirrored in CI as the "batch smoke" step. Writes to a
# fresh file so the committed full-grid BENCH_batch.json survives as the
# baseline for the advisory frontier comparison.
batch-smoke:
	$(GO) run ./cmd/faas-bench -exp batch -short -workers 8 -json BENCH_batch.ci.json -det-json BENCH_batch.det.json

# The batching determinism gate: pure sim time, so unlike overload the
# sweep joins the byte-identical-across-worker-counts contract. Reuses
# the workers=8 canonical twin batch-smoke wrote and re-runs at
# -workers 1.
batch-determinism: batch-smoke
	$(GO) run ./cmd/faas-bench -exp batch -short -workers 1 -det-json /tmp/gpufaas_batch_w1.json
	cmp /tmp/gpufaas_batch_w1.json BENCH_batch.det.json
	@echo "batching determinism gate: snapshots byte-identical across worker counts"

# Short-mode availability sweep (deterministic fault injection: mode ×
# MTTR × retry policy), mirrored in CI as the "chaos smoke" step. Writes
# to a fresh file so the committed full-grid BENCH_chaos.json survives
# as the baseline for the advisory retry-on comparison.
chaos-smoke:
	$(GO) run ./cmd/faas-bench -exp chaos -short -workers 8 -json BENCH_chaos.ci.json -det-json BENCH_chaos.det.json

# The chaos determinism gate: every fault instant is a pure function of
# the seed, so the sweep must be byte-identical at any worker count.
# Reuses the workers=8 canonical twin chaos-smoke wrote and re-runs at
# -workers 1.
chaos-determinism: chaos-smoke
	$(GO) run ./cmd/faas-bench -exp chaos -short -workers 1 -det-json /tmp/gpufaas_chaos_w1.json
	cmp /tmp/gpufaas_chaos_w1.json BENCH_chaos.det.json
	@echo "chaos determinism gate: snapshots byte-identical across worker counts"

# Record the hot-path benchmarks for later comparison: the previous
# recording rotates to bench_old.txt, so the workflow is
#   make bench-save            # on the old commit
#   ...change code...
#   make bench-save            # on the new commit
#   make bench-compare
bench-save:
	@if [ -f bench_new.txt ]; then mv bench_new.txt bench_old.txt; fi
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count 6 ./internal/sim ./internal/experiments ./internal/nn ./internal/tensor . | tee bench_new.txt

# benchstat old vs new hot-path snapshot; falls back to a per-benchmark
# mean comparison when benchstat is not installed (the dev container has
# no network to fetch it).
bench-compare:
	@if [ ! -f bench_old.txt ] || [ ! -f bench_new.txt ]; then \
		echo "need bench_old.txt and bench_new.txt — run 'make bench-save' on each commit"; exit 1; fi
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench_old.txt bench_new.txt; \
	else \
		echo "benchstat not found (go install golang.org/x/perf/cmd/benchstat@latest); mean ns/op fallback:"; \
		awk '/^Benchmark/ { sub(/-[0-9]+$$/, "", $$1); n[$$1]++; t[$$1] += $$3 } \
		     END { for (b in n) printf "%-50s %12.1f ns/op\n", b, t[b]/n[b] }' bench_old.txt | sort > /tmp/bench_old.mean; \
		awk '/^Benchmark/ { sub(/-[0-9]+$$/, "", $$1); n[$$1]++; t[$$1] += $$3 } \
		     END { for (b in n) printf "%-50s %12.1f ns/op\n", b, t[b]/n[b] }' bench_new.txt | sort > /tmp/bench_new.mean; \
		join -j 1 /tmp/bench_old.mean /tmp/bench_new.mean | \
		awk '{ printf "%-50s old %10.1f  new %10.1f  (%+.1f%%)\n", $$1, $$2, $$4, ($$4-$$2)/$$2*100 }'; \
	fi

# Advisory hot-path regression check against the committed baseline
# snapshot: re-measures the gpufaas-bench/v1 hotpath rows (which include
# the router_route cell benchmarks) and flags any case more than 50%
# slower than BENCH_baseline.json. Mirrored as the CI "benchmark
# regression" advisory step; never gates locally.
bench-regress:
	-$(GO) run ./cmd/faas-bench -exp hotpath -json BENCH_hotpath.json && \
		$(GO) run ./cmd/faas-bench/benchregress BENCH_baseline.json BENCH_hotpath.json

# Non-blocking vulnerability scan (mirrors CI's advisory step; needs
# network for the vuln DB, so failures never gate).
vuln:
	-$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

ci: fmt-check vet build test race vt-test benchmark-test bench-smoke ci-snapshot elasticity-smoke heterogeneity-smoke scale-smoke cells-smoke cells-determinism obs-smoke obs-determinism overload-smoke batch-smoke batch-determinism chaos-smoke chaos-determinism
