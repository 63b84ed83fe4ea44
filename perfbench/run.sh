#!/usr/bin/env bash
# Runs the benchmark from the root of a checkout:
#   bash perfbench/run.sh --workload closure --seed 1 --seconds 10 --trace 0
# The Go build cache, the temporary build files and every scratch
# directory the run creates live under <checkout>/.bench_build, so the
# run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off GOTOOLCHAIN=local
cd "$root/perfbench"
exec go run . --root "$root" "$@"
