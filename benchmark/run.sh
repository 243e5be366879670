#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# build product (Go build cache, temporaries, the binary, span files) stays
# under .bench_build/ in the checkout, so nothing is read or written
# outside it. Run from the repository root:
#
#   bash benchmark/run.sh                      # full bench/v1 suite
#   bash benchmark/run.sh --workload mm-block --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" GOWORK=off
go build -C "$here" -o "$build/slicing-bench" .
cd "$root"
exec "$build/slicing-bench" "$@"
