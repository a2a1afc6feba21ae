#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, see go.mod) and runs it from
# the repository root with the given arguments. Everything the build leaves
# behind — binary, Go build cache, temporary files, the toolchain's own
# configuration directory — stays in .bench_build/ at the repository root, so
# a run reads and writes only inside the checkout. cgo is off: the build then
# needs no C compiler (and none of its temporary files outside the checkout).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

cd "$root"
go build -C bench -o "$build/troxy-perfbench" .
exec "$build/troxy-perfbench" "$@"
