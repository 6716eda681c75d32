GO ?= go

.PHONY: all build vet test race bench-smoke bench-observers bench-observers-smoke bench-parallel-smoke audit-smoke unlinked

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
# catch perf regressions in CI without regenerating every figure — and
# over the routers' (ALT, plain A*, CH) warm single-pair queries.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig4aSearchXAR$$|BenchmarkFig4bCreateXAR$$|BenchmarkSearchObservers|BenchmarkSearchDense$$' -benchtime 100x .
	$(GO) test -run '^$$' -bench 'BenchmarkShortestPath(ALT|PlainAStar|CH)' -benchtime 100x ./internal/roadnet

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

# bench-parallel-smoke: one iteration of each concurrent-engine
# benchmark at every GOMAXPROCS step (procsP), plus one of
# BenchmarkMixedWorkloadJournal, which records into the journal's single
# lock from 8 goroutines with and without the auditor sweeping — verifies
# the parallel paths run, not their throughput (use `go test -bench
# Parallel -benchtime 1s .` for real numbers).
bench-parallel-smoke:
	$(GO) test -run '^$$' -bench 'Parallel|BenchmarkMixedWorkloadJournal' -benchtime 1x .

# unlinked: list every non-test function that no program links, from
# builds of every main package with inlining off; fails on one of 20
# lines or more (internal/tools/unlinked).
unlinked:
	$(GO) run ./internal/tools/unlinked
