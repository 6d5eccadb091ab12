#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the repository
# root, passing every argument through:
#
#   bash bench/run.sh --workload schedule-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries, temporary files and daemon stores all
# stay under .bench_build/ at the repository root, so a run writes nothing
# outside the checkout it runs in.
set -euo pipefail
cd "$(dirname "$0")/.."
b="$PWD/.bench_build"
mkdir -p "$b/tmp" "$b/home"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" HOME="$b/home"
export XDG_CONFIG_HOME="$b/home/.config" XDG_CACHE_HOME="$b/home/.cache"
export GOPATH="$b/home/go" GOMODCACHE="$b/home/go/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$b/bench" .
exec "$b/bench" "$@"
