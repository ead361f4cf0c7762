#!/usr/bin/env bash
# Builds bench_e2e and the dnnfi_campaign CLI it drives (Release, under
# build-e2e/), then runs bench_e2e with this script's arguments. Run it from
# the repository root, e.g.
#   bash bench/e2e/run.sh --workload uniform-alexnet-f16 --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last stdout line is bench_e2e's result.
set -euo pipefail
build=build-e2e
cmake -S bench/e2e -B "$build" >&2
cmake --build "$build" -j"$(nproc)" --target bench_e2e >&2
exec "$build/bench_e2e" "$@"
