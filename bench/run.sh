#!/usr/bin/env bash
# Builds the wbperf benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-csi --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files all go to
# $CARGO_TARGET_DIR (default .bench_build), inside the working tree. The
# settings below are fixed so that every run builds and schedules alike.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
export CGO_ENABLED=0 GOMAXPROCS=2

go build -C bench -o "$out/wbperf" ./wbperf
exec "$out/wbperf" "$@"
