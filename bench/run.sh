#!/usr/bin/env bash
# Builds the benchmark program and runs it with the given arguments.
#
#   bash bench/run.sh --workload shard-steady --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --smoke
#   bash bench/run.sh compare base.jsonl head.jsonl
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binaries, models, span files) stays under .bench_build/
# there, and the toolchain is pinned to the local one with the module proxy
# off, so a run never reaches the network.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod || ! -d cmd/smartserve ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, bench/ and cmd/)" >&2
	exit 2
fi

root=$(pwd)
state="$root/.bench_build"
mkdir -p "$state/gocache" "$state/tmp" "$state/gopath" "$state/bin"
export GOCACHE="$state/gocache" GOTMPDIR="$state/tmp" TMPDIR="$state/tmp" \
	GOPATH="$state/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -C bench -o "$state/bin/bench" .
exec "$state/bin/bench" "$@"
