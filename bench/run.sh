#!/bin/bash
# Entry point of BENCHMARK.json's "command": builds the benchmark from
# source and runs it with the arguments given, keeping everything the Go
# toolchain writes (build cache, temporary files, the binary) under
# .bench_build/ in the checkout. People can use `go run ./bench` instead.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
