#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything it writes — Go's build cache, the binary, fleets, journals,
# traces — stays inside the checkout: under .bench_build/ and bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw

go build -C "$here" -o "$build/opinedb-bench" .
cd "$root"
exec "$build/opinedb-bench" -scratch "$build/tmp" -trace-dir "$here/out" "$@"
