#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the repository; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload rmc1-zipf --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache, traces and result records all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
