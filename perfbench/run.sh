#!/bin/sh
# Builds the benchmark from source and runs it from the repository root:
#
#   sh perfbench/run.sh --workload batch-road --seed 1 --seconds 45 --trace 0
#
# Everything the build writes (compiler cache, binary, span dumps) stays
# under .bench_build/ in the checkout, and the Go tool is kept offline.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
