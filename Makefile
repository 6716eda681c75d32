GO ?= go

.PHONY: all build vet test race bench-smoke bench-observers bench-observers-smoke bench-parallel-smoke audit-smoke bench-scale bench-scale-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke: one fast pass over the headline benchmarks — enough to
# catch perf regressions in CI without regenerating every figure.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig4aSearchXAR$$|BenchmarkFig4bCreateXAR$$|BenchmarkSearchObservers|BenchmarkSearchDense$$' -benchtime 100x .

# bench-observers: every observer's cost on the loaded search hot path,
# one BenchmarkSearchObservers arm per configuration, each read against
# its baseline arm; see OBSERVABILITY.md "Overhead budgets".
bench-observers:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchObservers' -benchtime 2s -count 3 .

# bench-observers-smoke: the live fence CI runs — every arm in three
# interleaved rounds, each budgeted arm held to max(budget, 1.25) × its
# baseline's best round and the bare arm to 1 000 ns, then a
# loaded-engine memory sweep that must explain the live heap within 20%
# and a profiler that must capture every delta kind.
bench-observers-smoke:
	XAR_OBSERVER_SMOKE=1 $(GO) test -run 'TestObserverOverheadSmoke' -v .

# audit-smoke: a small clean replay through `xarsim -audit` must journal
# every lifecycle event, sweep the invariant auditor on the simulated
# clock, and exit zero with no violations — the correctness gate CI runs.
audit-smoke:
	$(GO) run ./cmd/xarsim -rows 12 -cols 8 -requests 200 -audit

# bench-scale: the open-loop, coordinated-omission-safe rate sweep —
# xarload drives the full HTTP path on a Poisson arrival schedule across
# a rate ladder and writes the throughput/latency/memory frontier to
# BENCH_scale.json (client quantiles from intended send time, server-side
# histogram cross-check, heap/RSS and memsize rides-per-GB per step).
# See OBSERVABILITY.md "Load testing".
bench-scale:
	$(GO) run ./cmd/xarload -rates 200,500,1000,2000,4000 -ops-per-step 2000 -out BENCH_scale.json

# bench-scale-smoke: a small-scale xarload sweep against an in-process
# server, gated on the lowest-rate p99 and every step's match rate — the
# CI regression fence for serving latency under load.
bench-scale-smoke:
	$(GO) run ./cmd/xarload -rows 16 -cols 10 -requests 800 \
		-rates 200,400 -ops-per-step 400 -warmup 200 \
		-out bench-scale-smoke.json -gate-p99-ms 250 -gate-match-rate 0.005

# bench-parallel-smoke: one iteration of each concurrent-engine
# benchmark at every GOMAXPROCS step (procsP), plus one of
# BenchmarkMixedWorkloadJournal, which records into the journal's single
# lock from 8 goroutines with and without the auditor sweeping — verifies
# the parallel paths run, not their throughput (use `go test -bench
# Parallel -benchtime 1s .` for real numbers).
bench-parallel-smoke:
	$(GO) test -run '^$$' -bench 'Parallel|BenchmarkMixedWorkloadJournal' -benchtime 1x .
