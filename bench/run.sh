#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from this
# checkout and runs it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1). Everything the build
# and the run write stays under .bench_build/ and bench/out/ of the
# checkout, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" -root "$root" "$@"
