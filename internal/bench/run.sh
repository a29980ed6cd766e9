#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's own
# source, then run it. Everything the build writes — Go's build cache,
# its temp directory, the binary — stays under .bench_build in the
# working directory, so a run touches nothing outside the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/bench ]; then
	echo "bench: run from the repository root (no go.mod here: nothing to build)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/gsfl-bench" ./internal/bench
exec "$build/gsfl-bench" "$@"
