#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash jettybench/run.sh --workload filter-sweep --seed 1 --seconds 20 --trace 0
#   bash jettybench/run.sh compare -parent parent.jsonl -change change.jsonl
#
# Everything it writes (the Go build cache, the binary, scratch data
# directories and span dumps) stays under .bench_build/ in the current
# directory. The build needs the repository's own module one directory
# up; without it the script fails before printing any result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C jettybench build -o "$out/jettybench" .
exec "$out/jettybench" "$@"
