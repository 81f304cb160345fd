#!/usr/bin/env bash
# Builds bench/tapload into .bench_build/ and replaces this shell with it,
# so the benchmark is one foreground process: no `go run`, no child left
# behind. Everything the go tool writes (build cache, temp files, its own
# config) is pointed inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
(
  cd bench
  GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
    GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off \
    go build -o "$out/tapload" ./tapload
)
exec "$out/tapload" "$@"
