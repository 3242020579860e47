#!/usr/bin/env bash
# Builds the benchmark harness from the checkout it is run in and runs it,
# forwarding every argument. Run it from the repository root:
#
#   bash bench/run.sh --workload fig6a-l1 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and traces.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a gmap checkout (go.mod, internal/ and bench/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd bench && go build -o "$out/gmap-bench" .)
exec "$out/gmap-bench" "$@"
