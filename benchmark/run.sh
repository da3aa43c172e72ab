#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. This is the command BENCHMARK.json names: the build cache,
# the toolchain's temporary files and the binary all stay under .bench_build/
# in the checkout, so a run reads and writes nothing outside it, and the
# binary replaces this shell, so no process is left behind.
#
#   bash benchmark/run.sh --workload paper_sweep --seed 7 --seconds 18 --trace 0
#
# `go run ./benchmark ...` does the same with the user's own build cache.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $root holds no go.mod: the benchmark builds against the repository it sits in" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/sae-benchmark" ./benchmark
exec "$build/sae-benchmark" "$@"
