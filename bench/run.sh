#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build leaves behind — the binary and the Go build cache —
# stays in .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/ixbench" .)
cd "$root"
exec "$build/ixbench" "$@"
