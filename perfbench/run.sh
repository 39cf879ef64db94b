#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload census --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Every file the build and the run
# write stays under .bench_build/ in that checkout: the Go build cache,
# the binary, the campaign's spill directory and the trace files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOTELEMETRY=off
export GOWORK=off

# go build is incremental: the first run in a checkout compiles the
# module, later runs only relink when a source changed.
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/out" "$@"
