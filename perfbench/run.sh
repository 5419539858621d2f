#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload sync-rw --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) and every
# scratch file the benchmark makes stays under .bench_build in the
# working directory.  The module in perfbench/ imports the repository's
# packages through a replace directive, so a build fails (and nothing is
# printed on standard output) unless the repository sources are present.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
