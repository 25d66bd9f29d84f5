#!/usr/bin/env bash
# Builds the service benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash svcbench/run.sh --workload churn-5k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, temp files, WAL directories, spans).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/svcbench" && go build -o "$out/svcbench" .) >&2
exec "$out/svcbench" --out "$out" "$@"
