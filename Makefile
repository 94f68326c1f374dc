# Developer entry points. `make check` is the pre-commit gate the
# ROADMAP's verify instructions reference: vet + formatting + the
# race-enabled simulator tests on top of the tier-1 suite.

GO ?= go

# Minimum total -short test coverage (percent). Ratcheted from 67.8 to
# 72.5 when the time-resolved observability layer landed, then to 73.0
# with the adaptive sweep engine, then to 73.5 with congestion
# attribution, then to 74.0; `make cover` fails below it so coverage can
# only go up.
COVER_FLOOR ?= 74.0

.PHONY: all build test check vet fmt race bench bench-smoke bench-json bench-digests perfbench-test cover fuzz-smoke staticcheck

all: build test

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check runs the static gates, the race detector over the concurrent
# packages, the differential-fuzz smoke runs, the coverage floor, a
# one-iteration pass over every guard benchmark so the benchmarks
# themselves cannot rot uncompiled or crash unnoticed between re-pins,
# the perfbench module's tests, and one pass of every perfbench
# workload against its pinned result digests.
check: vet fmt staticcheck race fuzz-smoke cover bench-smoke perfbench-test bench-digests

# perfbench is a separate module (it pins the repo through a replace
# directive), so `go vet ./...` at the root never compiles it; vetting it
# here keeps a simulator API change from silently breaking the benchmark
# harness.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# staticcheck runs when the tool is on PATH and is skipped (with a
# notice) when it is not — the check gate must work in hermetic
# environments that cannot install tools.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# expt and core run with -short: their full-suite tests are redundant
# under race, and the dedicated pool/parallel-sweep and restart
# equivalence tests never skip. The adaptive sweep engine's tests
# (abort_test, saturation_test, converge_test, and the expt adaptive
# determinism tests) live inside these packages, so the early-abort
# detector and bisection search run under the race detector on every
# check. internal/par is the shared fan-out loop and its nested worker
# budget; mapping.Best and core's placement restarts run their restarts
# concurrently on it.
race:
	$(GO) test -race ./internal/sim/... ./internal/obs/... ./internal/par/... ./internal/mapping/...
	$(GO) test -race -short ./internal/expt/... ./internal/core/...

# fuzz-smoke gives each differential fuzz target a short budget on top
# of the committed seed corpus: FuzzSimEquivalence diffs the optimized
# simulator against internal/sim/refsim, FuzzResetEquivalence dirties a
# network, Resets it and requires the rerun to match both a fresh build
# and the reference bit for bit, FuzzSweepDeterminism diffs parallel
# sweeps against serial ones.
# Failures print a replay spec for `wsswitch -replay`.
# FuzzOptimizeEquivalence diffs the pairwise-exchange optimizer, which
# prices swaps with difference arrays, against the swap/Cost/revert
# reference loop on fuzzed topologies, grid shapes (1-row, 1-column,
# empty cells) and seeds.
fuzz-smoke:
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzSimEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzResetEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzSweepDeterminism$$' -fuzztime 10s
	$(GO) test ./internal/mapping -run NONE -fuzz 'FuzzOptimizeEquivalence$$' -fuzztime 10s

# cover enforces the total -short coverage floor (COVER_FLOOR).
cover:
	@$(GO) test -short -coverprofile=/tmp/wsswitch-cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=/tmp/wsswitch-cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% fell below floor $(COVER_FLOOR)%"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem -short ./...

# bench-smoke runs every benchmark for exactly one iteration: no timing
# value, just proof that each one still builds, runs and reports. Cheap
# enough to sit inside `make check`.
bench-smoke:
	$(GO) test -run NONE -short -bench . -benchtime 1x ./...

# perfbench is a separate module, so `go test ./...` at the root never
# runs its tests (catalogue vs BENCHMARK.json, pinned digests, command
# line).
perfbench-test:
	$(GO) -C perfbench test ./...

# bench-digests runs every workload BENCHMARK.json lists (read with jq)
# once and fails unless the run exits 0 and reports "correct":true: each
# operation's result digest must match perfbench/digests.json, so a
# change to the simulator kernel cannot move a pinned result unnoticed.
bench-digests:
	@ws=$$(jq -r '.workloads[].name' BENCHMARK.json) && [ -n "$$ws" ] || \
		{ echo "bench-digests: cannot read the workloads from BENCHMARK.json"; exit 1; }; \
	for w in $$ws; do \
		out=$$(bash perfbench/run.sh --workload $$w --seconds 0) || \
			{ echo "bench-digests: $$w failed"; exit 1; }; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; *) echo "bench-digests: $$w is not correct"; exit 1;; esac; \
	done

# bench-json snapshots the guard benchmarks (simulator inner loop with
# the timeline/tracer/attribution on and off, the saturated/knee
# hot-loop guards, and the sweep engine serial/parallel plus
# exhaustive/adaptive saturation pairs: ns/op, allocs/op, cycles/op)
# into BENCH_sim.json so the perf trajectory is machine-readable across
# commits. The *Off cases pin the
# disabled observability paths at 0 allocs/op. benchjson -diff gates
# the fresh numbers against the committed baseline — >15% ns/op
# regressions, any allocation or beyond-tolerance B/op growth on a
# zero-alloc guard, or a silently dropped benchmark fail the target
# before the snapshot is overwritten (a geomean ns/op delta line prints
# either way). To intentionally re-pin after a known change:
# make bench-json DIFF_FLAGS=
DIFF_FLAGS ?= -diff BENCH_sim.json
bench-json:
	{ $(GO) test -run NONE -short -bench 'BenchmarkSimCycle$$|BenchmarkSimTimeline|BenchmarkSimTracer|BenchmarkSweepSerial$$|BenchmarkSweepParallel$$|BenchmarkSweepReuse$$|BenchmarkSweepExhaustive$$|BenchmarkSweepAdaptive$$|BenchmarkNetworkResetVsBuild$$' -benchmem . ; \
	  $(GO) test -run NONE -short -bench 'BenchmarkSimSteadyState|BenchmarkSimAttribution|BenchmarkSimCycleSaturated|BenchmarkSimCycleKnee$$' -benchmem ./internal/sim ; } \
	| $(GO) run ./cmd/benchjson $(DIFF_FLAGS) > BENCH_sim.json.tmp
	mv BENCH_sim.json.tmp BENCH_sim.json
	@echo wrote BENCH_sim.json
