#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a repository checkout:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout, including the Go build cache.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOENV=off \
	GOPROXY=off
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.tmp.$$" .)
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" -root "$root" "$@"
