#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run it from the repository root. Everything it writes — the Go build cache
# included — stays inside the checkout, under .bench_build/ and
# benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/tmbp-benchmark" .
exec "$build/tmbp-benchmark" "$@"
