#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, in this directory) and
# runs it from the checkout root with the arguments given:
#
#   bash bench/run.sh --workload dense-short --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: Go's build cache and temporary files are pointed there, so a
# fresh checkout pays one cold build and a later run reuses it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-modcacherw

# In a directory that holds only the benchmark, the module this one
# replaces (../go.mod) is missing and the build fails: non-zero exit, no
# result line.
go -C "$here" build -o "$build/bin/bench" .

cd "$root"
exec "$build/bin/bench" "$@"
