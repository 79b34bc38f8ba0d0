#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# inside the checkout it is started in and runs it with the given flags
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>). Everything
# the Go toolchain writes (build cache, module cache, telemetry) is kept
# under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o "$build/hsbench" .
exec "$build/hsbench" "$@"
