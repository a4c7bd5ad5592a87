#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash evabench/run.sh --workload high-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail
build="${PWD}/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C evabench build -o "$build/evabench" .
exec "$build/evabench" --build-dir "$build" "$@"
