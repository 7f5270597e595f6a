#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then replaces this
# shell with the binary: one foreground process, nothing spawned beside
# it, nothing left behind when it is killed. Everything the Go toolchain
# writes (build cache, temporaries) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$build/dicebench" .)
cd "$root"
exec "$build/dicebench" "$@"
