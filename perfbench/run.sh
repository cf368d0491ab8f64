#!/usr/bin/env bash
# Builds the benchmark and the gmacbench CLI from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fault-storm --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# compiler's temporary files and span dumps all stay in $CARGO_TARGET_DIR
# (default .bench_build). The build is offline: the module needs nothing
# beyond the repository and the standard library.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go build -C perfbench -o "$out/perfbench" .
go build -o "$out/gmacbench" ./cmd/gmacbench
exec "$out/perfbench" -root "$root" -out "$out" "$@"
