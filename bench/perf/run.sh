#!/usr/bin/env bash
# Builds the benchmark from source and runs it once. From the repository root:
#
#   bash bench/perf/run.sh --workload echo-udp --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's profiles live in
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside the
# checkout. The last line of standard output is the run's JSON result.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench/perf && go build -buildvcs=false -o "$out/perf" .)
exec "$out/perf" -profiles "$out/perf-profiles" "$@"
