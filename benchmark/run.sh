#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the checkout it
# sits in, then run it with the driver's arguments. Everything the build and
# the run write — the go build cache included — stays under .bench_build in
# that checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
(cd "$root/benchmark" && go build -o "$root/.bench_build/bin/benchmark" .)
exec "$root/.bench_build/bin/benchmark" -root "$root" "$@"
