#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload eval_point --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go -C "$root/benchmark" build -o "$out/olgabench" . >&2
exec "$out/olgabench" "$@"
