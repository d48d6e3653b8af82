#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload midsize-warm --seed 1 --seconds 20 --trace 0
#
# Build outputs (the binary, the Go build cache and temporary files,
# traces) stay under .bench_build/ in the working directory, so nothing is
# written outside it.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
