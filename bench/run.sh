#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# Everything the Go toolchain writes stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
