#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/out/.build/ (compiler
# cache and temporary files included, so nothing is written outside the
# checkout, and the dot keeps `./...` from walking into it) and runs it
# with the arguments given. BENCHMARK.json names this script as the
# benchmark command; by hand, `go run ./benchmark <args>` does the same.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
