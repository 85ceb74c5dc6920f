#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Start it from the root of the checkout: bash bench/run.sh --workload ...
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ of the checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/home"

# The benchmark is its own module (bench/go.mod) that replaces the vida
# module with the checkout around it; it needs nothing from the network.
(
	cd "$bench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/vida-bench" .
)
exec "$build/vida-bench" "$@"
