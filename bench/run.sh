#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# into .bench_build/ inside the checkout -- Go's build cache and its
# temporary work directory included, so nothing is written outside the
# checkout -- and runs it with the given arguments. `go run ./bench` does
# the same with the user's own cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
