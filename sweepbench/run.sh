#!/usr/bin/env bash
# Builds the sweep benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash sweepbench/run.sh --workload fig6-membound --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artefact stays under
# the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/sweepbench" build -o "$build/sweepbench" .
exec "$build/sweepbench" -build-dir "$build" "$@"
