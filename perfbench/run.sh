#!/usr/bin/env bash
# Builds the benchmark and rcserved from this checkout, then runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload apply-dense --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root" build -o "$out/rcserved" ./cmd/rcserved
# Flush what the build wrote, so its writeback does not run during the
# measurement.
sync
exec "$out/perfbench" --rcserved "$out/rcserved" --workdir "$out" "$@"
