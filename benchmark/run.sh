#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the build and the run write stays under .bench_build in the checkout:
# the Go build cache, Go's scratch directory, the benchmark's binary, its
# store directories and its span files. The benchmark replaces this shell
# (exec), so one process runs the workload and nothing is left behind.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root holds no go.mod; the benchmark builds against the repository's source" >&2
	exit 1
fi
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$here" -buildvcs=false -o "$build/typecoin-benchmark" .
cd "$root"
exec "$build/typecoin-benchmark" "$@"
