#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#
#   bash bench/run.sh --workload fresh-world --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the go
# command's own state, journals, the traced run's spans) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C bench build -o "$build/litmus-bench" .
exec "$build/litmus-bench" "$@"
