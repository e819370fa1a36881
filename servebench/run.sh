#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# flags, e.g.
#
#   bash servebench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# scratch files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" --scratch "$build/tmp" "$@"
