#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root with
# the arguments given. Everything the build writes (compiler cache, temporary
# files, the binary) stays in .bench_build/ under the root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/cordoba-bench" .
exec "$build/cordoba-bench" "$@"
