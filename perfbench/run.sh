#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments are passed on.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig10-seq --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady --runs 5
#
# The build cache, temporary files and the binary live in .bench_build
# under the current directory, so nothing is written outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly GOTELEMETRY=off
# Freed heap pages stay mapped (MADV_FREE) instead of being handed back to the
# kernel. fuzz-xval allocates about 7 GB per round; re-faulting returned pages
# took a quarter of its CPU time as system time, and its round times swung up
# to threefold between runs when the host was busy. See perfbench/README.md.
export GODEBUG=madvdontneed=0
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
