#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments:
# the command BENCHMARK.json names. Everything the build writes (the
# binary, Go's build cache, temporary files and toolchain telemetry
# counters) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the program to measure is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
# With telemetry on or local, the go command leaves a detached
# "upload" child of itself behind on its first run under a fresh HOME;
# mode off starts none, so nothing outlives this script.
echo off >"$build/home/.config/go/telemetry/mode"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0 \
	go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
