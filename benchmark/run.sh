#!/usr/bin/env bash
# Driver entry point: build the benchmark from source into .bench_build in
# the checkout, then run it from the checkout root with the driver's
# arguments. Everything the Go toolchain writes (build cache, temporary
# files, telemetry) is pointed inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/benchmark"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
