#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash perfbench/run.sh --workload noop-closed --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh            # every workload, untraced then traced
#
# Run it from the repository root. Build products, the Go build cache and
# the benchmark's outputs (spans, per-layer reports, WAL directories) all
# stay under .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=vendor
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/bin/perfbench" ./perfbench
exec "$build/bin/perfbench" "$@"
