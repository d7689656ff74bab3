#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload circ_wide --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and run scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" --work "$out" "$@"
