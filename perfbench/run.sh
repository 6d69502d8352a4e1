#!/usr/bin/env bash
# Builds the serving-path benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload kv-pipelined --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, binary,
# store files, span traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -dir "$out/perfbench" "$@"
