#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write — Go build cache,
# temp files, the two binaries, daemon cache dirs — stays under .bench_build/
# at the root of the checkout; results go to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
# setup_s counts from here, so the build of the benchmark itself is in it.
BENCH_T0_NS="$(date +%s%N)"
export BENCH_T0_NS
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
