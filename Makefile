GO ?= go

.PHONY: all build vet test race bench-smoke bench-telemetry bench-tracing bench-recorder bench-audit bench-quality bench-quality-smoke bench-memory bench-memory-smoke bench-profile bench-profile-smoke bench-parallel-smoke audit-smoke bench-scale bench-scale-smoke bench-ch bench-ch-smoke bench-trend

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke: one fast pass over the headline benchmarks — enough to
# catch perf regressions in CI without regenerating every figure.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig4aSearchXAR$$|BenchmarkFig4bCreateXAR$$|BenchmarkSearchTelemetry|BenchmarkSearchTracing|BenchmarkSearchRecorder|BenchmarkSearchJournal|BenchmarkSearchQuality|BenchmarkSearchMemsize|BenchmarkSearchDense$$' -benchtime 100x .

# bench-telemetry: the observability overhead comparison (off vs on)
# backing the ≤5% search hot-path budget; see README "Observability".
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchTelemetry' -benchtime 3s -count 4 .

# bench-tracing: the request-tracing overhead comparison (off vs
# head-sampled vs always-on) backing BENCH_tracing.json; see README
# "Tracing".
bench-tracing:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchTracing' -benchtime 3s -count 4 .

# bench-recorder: the flight-recorder overhead comparison (registry
# alone vs a recorder snapshotting it at a 5 ms cadence) backing
# BENCH_recorder.json; see OBSERVABILITY.md.
bench-recorder:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchRecorder' -benchtime 3s -count 4 .

# bench-audit: the event-journal + invariant-auditor overhead comparison
# (off vs journal-on vs journal + background sweeps — 50 ms cadence on
# the serial search path, 1 s under the parallel mixed workload) backing
# BENCH_audit.json; see OBSERVABILITY.md "Event journal & auditing".
bench-audit:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchJournal|BenchmarkMixedWorkloadJournal' -benchtime 1.5s -count 3 .

# bench-quality: the match-quality accounting overhead comparison (no
# collector vs funnel + gap histograms vs funnel + shadow matcher at the
# production 1-in-8 sample) backing BENCH_quality.json's ≤5% budget; see
# OBSERVABILITY.md "Match quality".
bench-quality:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchQuality' -benchtime 3s -count 4 .

# bench-quality-smoke: the CI fence for the same comparison — interleaved
# off/on arms with a deliberately loose 25% bound that absorbs shared-
# runner drift but catches structural regressions (a lock or per-candidate
# allocation added to the search hot path). The strict ≤5% budget is
# judged on quiet hardware and recorded in BENCH_quality.json, whose
# committed numbers `go test` re-checks (TestQualityBenchRecordMeetsBudget).
bench-quality-smoke:
	XAR_QUALITY_SMOKE=1 $(GO) test -run 'TestSearchQualityOverheadSmoke' -v .

# bench-memory: the memory-accounting overhead comparison (no memsize
# registry vs full component accounting with the background sweeper at a
# 1 ms requested cadence, duty-cycled to ≤1% of one core) backing
# BENCH_memory.json's ≤5% budget; see OBSERVABILITY.md "Memory".
bench-memory:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchMemsize' -benchtime 2s -count 3 .

# bench-memory-smoke: the CI fence for the same comparison plus the
# coverage check — interleaved off/on arms under a loose 25% bound that
# absorbs shared-runner drift, then a loaded-engine sweep asserting the
# tracked components explain the live heap within 20%. The strict ≤5%
# budget is judged on the committed BENCH_memory.json numbers, which
# `go test` re-checks (TestMemoryBenchRecordMeetsBudget).
bench-memory-smoke:
	XAR_MEMORY_SMOKE=1 $(GO) test -run 'TestMemorySweepOverheadSmoke' -v .

# bench-profile: the continuous-profiling overhead comparison (no
# profiler vs the capture worker at a 1 ms requested cadence, throttled
# by its ≤1%-of-core fold and ≤10%-of-wall CPU-window duty floors)
# backing BENCH_profile.json's ≤5% budget; see OBSERVABILITY.md
# "Continuous profiling".
bench-profile:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchProfiling|BenchmarkSearchTelemetry/off' -benchmem -benchtime 2s -count 3 .

# bench-profile-smoke: the CI fence for the same comparison — interleaved
# off/on arms under a loose 25% bound that absorbs shared-runner drift,
# then a liveness check that the profiler actually captured every delta
# kind during the run and self-reported a sane overhead gauge. The strict
# ≤5% budget is judged on the committed BENCH_profile.json numbers, which
# `go test` re-checks (TestProfileBenchRecordMeetsBudget).
bench-profile-smoke:
	XAR_PROFILE_SMOKE=1 $(GO) test -run 'TestSearchProfilingOverheadSmoke' -v .

# bench-trend: the performance-regression sentinel — fold every committed
# BENCH_*.json into the longitudinal trajectory (BENCH_trajectory.json),
# run a fresh search micro-benchmark on this machine, and gate on every
# banded series (committed history and the fresh point alike). See
# OBSERVABILITY.md "Performance trend".
bench-trend:
	$(GO) run ./cmd/xarperf -gate -smoke -out BENCH_trajectory.json

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

# bench-ch: the routing head-to-head (plain A* vs ALT vs CH) at three
# city sizes, written to BENCH_ch.json and gated on a ≥10x CH/ALT
# speedup at the largest size with zero distance mismatches against the
# exact reference. See DESIGN.md §12 "Routing: CH model".
bench-ch:
	$(GO) run ./cmd/xarbench -ch-bench -ch-min-speedup 10 -ch-out BENCH_ch.json

# bench-ch-smoke: the same head-to-head as a CI regression fence — the
# relaxed 5x gate absorbs noisy shared runners; the zero-mismatch gate
# is exact either way.
bench-ch-smoke:
	$(GO) run ./cmd/xarbench -ch-bench -ch-reps 4 -ch-min-speedup 5 -ch-out bench-ch-smoke.json

# bench-parallel-smoke: one iteration of each concurrent-engine
# benchmark at every GOMAXPROCS step (procsP), plus one of
# BenchmarkMixedWorkloadJournal, which records into the journal's single
# lock from 8 goroutines with and without the auditor sweeping — verifies
# the parallel paths run, not their throughput (use `go test -bench
# Parallel -benchtime 1s .` for real numbers; BENCH_parallel.json records
# a measured curve).
bench-parallel-smoke:
	$(GO) test -run '^$$' -bench 'Parallel|BenchmarkMixedWorkloadJournal' -benchtime 1x .
