#!/usr/bin/env bash
# Full verification chain: build, vet, repo-specific lint, tests,
# invariant-armed tests, the race detector over the concurrent engine,
# benchmark smoke runs, and a live scrape of the quantbench metrics
# endpoint. Run from anywhere inside the repository.
#
# Every step is a named gate: on failure the script prints exactly which
# gate tripped and stops there.
set -euo pipefail

cd "$(dirname "$0")/.."

gate() {
	local name="$1"
	shift
	echo "verify.sh: gate ${name}: $*"
	if ! "$@"; then
		echo "verify.sh: FAILED gate: ${name}" >&2
		exit 1
	fi
}

# gofmt_clean fails (listing the offenders) when any tracked Go file,
# fixtures included, is not gofmt-formatted.
gofmt_clean() {
	local out
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		echo "gofmt must be run on:" >&2
		echo "$out" >&2
		return 1
	fi
}

# metrics_smoke boots quantbench with the HTTP observability endpoint
# and scrapes /metrics once — the flag wiring, mux and Prometheus
# rendering all have to work for the grep to succeed. Port 0 lets the
# kernel pick a free port (parallel CI jobs must not collide on a fixed
# one); quantbench prints the bound address on stderr and the poll
# below parses it from the log.
metrics_smoke() {
	local bin log addr
	bin="$(mktemp -t quantbench.XXXXXX)"
	log="$(mktemp -t quantbench.log.XXXXXX)"
	go build -o "$bin" ./cmd/quantbench
	# -mem-budget arms the governor so the budget counters are exercised,
	# not just rendered.
	"$bin" -run table3 -scale 0.02 -quiet -metrics -mem-budget 262144 \
		-http "127.0.0.1:0" -linger 30s >/dev/null 2>"$log" &
	local pid=$!
	local ok=0 body
	for _ in $(seq 1 50); do
		addr="$(sed -n 's#^quantbench: serving metrics on http://\([^/]*\)/metrics$#\1#p' "$log" | head -n 1)"
		if [ -n "$addr" ] && body="$(curl -sf "http://${addr}/metrics")" &&
			grep -q '^quantstream_engine_generated_total' <<<"$body" &&
			grep -q '^quantstream_engine_budget_bytes' <<<"$body" &&
			grep -q '^quantstream_engine_degradations_total' <<<"$body" &&
			grep -q '^quantstream_engine_checkpoint_retries_total' <<<"$body"; then
			ok=1
			break
		fi
		sleep 0.2
	done
	kill "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
	rm -f "$bin" "$log"
	[ "$ok" = 1 ]
}

gate build go build ./...
gate gofmt gofmt_clean
gate vet go vet ./...
gate sketchlint go run ./cmd/sketchlint ./...
# The cross-function and hot-path rules also run as individual gates so
# a failure names the broken contract directly in CI output.
gate sketchlint-purity go run ./cmd/sketchlint -q -rules purity ./...
gate sketchlint-atomic-mix go run ./cmd/sketchlint -q -rules atomic-mix ./...
gate sketchlint-recover-swallow go run ./cmd/sketchlint -q -rules recover-swallow ./...
gate sketchlint-hotpath-alloc go run ./cmd/sketchlint -q -rules hotpath-alloc ./...
gate sketchlint-suppressions go run ./cmd/sketchlint -q -rules unused-suppression ./...
gate tests go test ./...
# The //sketch:hotpath annotations are backed by AllocsPerRun
# regression tests; run them by name so an allocation regression is
# called out as its own gate.
gate hotpath-allocs go test -run 'Allocs' ./internal/kll ./internal/req \
	./internal/ddsketch ./internal/uddsketch ./internal/moments \
	./internal/fastlog ./internal/stream ./internal/concurrent
# The selection-based ground truth must agree bit for bit with the
# sorting oracle on any input; a short live fuzz session hunts for one
# that breaks it (crashers land in internal/stats/testdata/fuzz).
gate fuzz-quantileset go test -run '^$' -fuzz FuzzQuantileSet -fuzztime 10s ./internal/stats
# Every sketch.ScaledMerger kernel must match MergeScaled's serde
# reference path bit for bit on any receiver, source and weight; a short
# live fuzz session hunts for a disagreement (crashers land in
# internal/sketch/testdata/fuzz).
gate fuzz-mergescaled go test -run '^$' -fuzz FuzzMergeScaled -fuzztime 10s ./internal/sketch
gate invariant-tests go test -tags invariants ./internal/...
gate race go test -race ./internal/stream ./internal/harness
# Crash-recovery / corruption matrix under the race detector: injected
# worker panics at every worker×partition shape, corrupt and truncated
# checkpoints, duplicate batch delivery, stalls, the generic-engine
# recovery paths, the checkpoint envelope/store suite, and the
# random-kill soak — recovered output must stay bit-identical.
gate chaos go test -race \
	-run 'CrashRecovery|Recovery|Resume|Corrupt|Fault|Duplicate|Stall|Checkpoint|Envelope|Snapshot|Store' \
	./internal/stream ./internal/checkpoint ./internal/faultinject ./internal/harness .
# Shared-sketch concurrency under the race detector: the relaxation
# property test, the epoch/CAS handoff suite, the engine integration
# tests and the multi-writer/multi-reader soak in the root package.
gate concurrent go test -race -run 'Concurrent|Relaxation|Shared|Epoch|Snapshot|Writer' \
	./internal/concurrent ./internal/stream .
# Sliding-window pane sharing under the race detector: pane-merged
# windows must be bit-identical to recompute-from-scratch references
# (serial and parallel), decay must be metamorphic at λ=0, pane state
# must survive crash recovery, ScaleCount must be deterministic, and
# every MergeScaled kernel must match the serde reference path.
gate pane go test -race \
	-run 'Pane|Sliding|Decay|ScaleCount|MergeScaled|WeightedQuantiles|TumblingSlide' \
	./internal/stream ./internal/sketch ./internal/stats ./internal/harness
# Memory-budget governor and fault-hardened checkpoint I/O under the
# race detector: the budget-never-exceeded property, graceful
# degradation ladders on every sketch, retry/backoff over transient
# store faults, and the flaky-store soak in the root package.
gate budget go test -race \
	-run 'Budget|Degrade|Footprint|Retry|Transient|Shed|Evict|AccuracyBound' \
	./internal/budget ./internal/checkpoint ./internal/faultinject \
	./internal/kll ./internal/req ./internal/ddsketch ./internal/uddsketch \
	./internal/moments ./internal/stream ./internal/concurrent ./internal/harness .
# Smoke-run the perf-gate benchmarks (fixed iteration count: checks
# they still execute, not their timing — scripts/bench.sh does that).
gate bench-smoke-stream go test -run '^$' -bench 'BenchmarkInsertBatch|BenchmarkStreamThroughput' -benchtime 100x .
gate bench-smoke-query go test -run '^$' -bench 'BenchmarkQuantileAll' -benchtime 100x .
gate bench-smoke-insert go test -run '^$' -bench 'BenchmarkInsertMapping|BenchmarkInsertStore|BenchmarkInsertIndexer' -benchtime 100x .
gate bench-smoke-accuracy go test -run '^$' -bench 'BenchmarkAccuracyEval' -benchtime 1x .
gate bench-smoke-concurrent go test -run '^$' -bench 'BenchmarkConcurrentInsert' -benchtime 100x .
gate bench-smoke-pane go test -run '^$' -bench 'BenchmarkSlidingThroughput' -benchtime 100x .
gate bench-smoke-budget go test -run '^$' -bench 'BenchmarkBudgetOverhead' -benchtime 100x .
# perfbench/ is its own module, so the root `go build ./...` and
# `go test ./...` never compile it: vet and smoke-test it here, so an
# API change in the packages it imports cannot land green.
gate perfbench-smoke bash -c 'cd perfbench && go vet ./... && go test ./...'
gate metrics-endpoint metrics_smoke

echo "verify.sh: all gates passed"
