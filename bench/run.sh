#!/usr/bin/env bash
# Launcher for the benchmark harness, run from the root of a checkout:
#
#	bash bench/run.sh --workload factoid_cold --seed 1 --seconds 10 --trace 0
#
# It builds the harness into .bench_build/ and hands over to it. The Go
# build and module caches, the toolchain's temporary and configuration
# directories (it keeps telemetry counters there) are pinned inside the
# checkout so a run writes nothing outside it; the harness inherits them
# for building cmd/seeder and cmd/dwqa from the tree under test.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
mkdir -p "$build/bin" "$build/tmp"
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
