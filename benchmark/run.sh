#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout
# root. Everything built or written, the Go build cache included, stays
# under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh --workload replay_city --seed 42 --seconds 6 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache" GOTOOLCHAIN=local
(cd benchmark && go build -o ../.bench_build/xarbenchmark .)
exec .bench_build/xarbenchmark "$@"
