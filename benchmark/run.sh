#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it. This is
# the command BENCHMARK.json names; `go run ./benchmark` is the same program
# for a developer. Everything the build writes (compiler cache, temporary
# files, the binary) stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $root has no go.mod; the benchmark builds against the repository's packages" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local
go build -o "$build/paso-benchmark" ./benchmark
exec "$build/paso-benchmark" "$@"
