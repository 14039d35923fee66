#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload fig5-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# spans, profiles, serve caches) goes under .bench_build/ in the current
# directory.
set -euo pipefail

if [[ ! -f go.mod ]] || ! grep -q '^module orion$' go.mod || [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of the orion repository" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -trimpath -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
