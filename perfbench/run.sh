#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from
# the checkout's root. Everything the build and the run write stays under
# .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
