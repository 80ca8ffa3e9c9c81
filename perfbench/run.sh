#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload commute-warm --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under $CARGO_TARGET_DIR (default .bench_build): the Go build
# cache, the binary, the run records and spans, and the deployment's
# scratch data directories.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
