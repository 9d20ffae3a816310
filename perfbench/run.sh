#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Every build artifact and scratch file stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# XDG_CONFIG_HOME keeps the go command's local telemetry counters in
# the build directory too.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTMPDIR=$build

# Outside a full checkout there is no module to build against; fail
# before printing anything.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -scratch "$build" "$@"
