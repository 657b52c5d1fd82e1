#!/usr/bin/env bash
# run.sh — build pwbench from this checkout and run it.
#
# Run from the repository root:
#
#   bash bench/run.sh --workload campaign-28 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, the
# pwbench and pwanalyze binaries, corpora, profiles) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
    echo "pwbench: run from the repository root (go.mod, internal/ and bench/ not found)" >&2
    exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C bench build -o "$out/pwbench" ./pwbench
exec "$out/pwbench" "$@"
