#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#	bash benchmark/run.sh --workload sim_dense_hits --seed 42 --seconds 10 --trace 0
#
# Everything the go tool writes (build cache, binary, its own configuration)
# and the traced run's span files land in .bench_build under the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -C benchmark -o "$build/starcdn-benchmark" .
exec "$build/starcdn-benchmark" "$@"
