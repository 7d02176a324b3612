#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build writes (binary, Go build cache) stays in
# .bench_build/ inside the checkout; arguments pass through to the binary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$build/rtsm-bench" .
exec "$build/rtsm-bench" "$@"
