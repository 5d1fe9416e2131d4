#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Build outputs, the Go build cache,
# traces and temporary data all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off
export GOPATH=$out/gopath GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
