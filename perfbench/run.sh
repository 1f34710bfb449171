#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload suite-rmat --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the run records all stay under
# .bench_build/ in the current directory. Build output goes to stderr; the
# last line of stdout is the result JSON.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench" "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" "$@"
