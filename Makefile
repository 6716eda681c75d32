GO ?= go

.PHONY: all build vet test race bench-smoke bench-observers bench-observers-smoke bench-parallel-smoke audit-smoke unlinked figures

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
# catch perf regressions in CI without regenerating every figure: XAR's
# search, create and booking (the booking's write path: snapshot, stitch,
# one route walk, commit), the routers' (ALT, plain A*, CH) warm
# single-pair queries, the index's ride registration on the repository
# benchmark's 80x44 city (both of BenchmarkRegister's arms, warm and
# cold), and one mid-list posting-list edit pair at search_dense's list
# lengths (BenchmarkListEditDense, with the tuples it shifts and the keys
# it probes per op), and the shared bucket grid's two hot uses on the
# same city: the region's grid table (every cell's centroid snap and
# walkable-landmark scan) and one centroid snap, the create path's
# nearest-node query (BenchmarkGridTable/table and /nearest); and the
# tables an engine builds from the graph: the ALT build on that city
# (BenchmarkNewALT) and NewEngine on the 24x14 op world
# (BenchmarkNewEngine).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig4aSearchXAR$$|BenchmarkFig4bCreateXAR$$|BenchmarkFig4cBookXAR$$|BenchmarkSearchObservers|BenchmarkSearchDense$$' -benchtime 100x .
	$(GO) test -run '^$$' -bench 'BenchmarkShortestPath(ALT|PlainAStar|CH)|BenchmarkNewALT$$' -benchtime 100x ./internal/roadnet
	$(GO) test -run '^$$' -bench 'BenchmarkNewEngine$$' -benchtime 100x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkRegister$$|BenchmarkListEditDense$$' -benchtime 100x ./internal/index
	$(GO) test -run '^$$' -bench 'BenchmarkGridTable/(table|nearest)$$' -benchtime 100x ./internal/discretize

# bench-observers: every observer's cost on the loaded search hot path,
# one BenchmarkSearchObservers arm per configuration, each read against
# its baseline arm; see OBSERVABILITY.md "Overhead budgets".
bench-observers:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchObservers' -benchtime 2s -count 3 .

# bench-observers-smoke: the live fence CI runs — every arm in three
# interleaved rounds, each budgeted arm held to max(budget, 1.25) × its
# baseline's best round and the bare arm to 1 000 ns, then a
# loaded-engine memory sweep that must explain the live heap within 20%
# and a profiler that must capture its heap, mutex and block blobs.
bench-observers-smoke:
	XAR_OBSERVER_SMOKE=1 $(GO) test -run 'TestObserverOverheadSmoke' -v .

# audit-smoke: a small clean replay through `xarsim -audit` must journal
# every lifecycle event, count every search's candidate funnel, sweep the
# invariant auditor (all five invariant families) on the simulated clock,
# and exit zero with no violations — the correctness gate CI runs.
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

# figures: regenerate bench_figures.txt, every figure xarbench draws at
# its defaults (-fig all); the file's first two lines are xarbench's
# stderr (the world it built). About 30 s on a 2-vCPU host, half of
# it Fig 4.
figures:
	$(GO) run ./cmd/xarbench > bench_figures.txt 2>&1
