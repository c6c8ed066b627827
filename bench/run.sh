#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload scenario-lockstep --seed 3 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# leave behind (Go build cache, binary, temporary session stores, traces)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/gocache"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$build/mpic-bench" .)
exec "$build/mpic-bench" -tmp "$build/tmp" "$@"
