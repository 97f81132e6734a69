#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping the Go
# build cache, the binary and the go command's own usage counters (it writes
# them under the user's configuration directory) inside the checkout, in
# .bench_build/. Run from the repository root:
# bash bench/run.sh --workload point_lookup --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod here; run from the root of a full checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/systemr-bench" ./bench
exec "$build/systemr-bench" "$@"
