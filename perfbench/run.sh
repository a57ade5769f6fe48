#!/usr/bin/env bash
# Builds sketchd and the perfbench benchmark binary from this checkout's
# sources and runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, logs, checkpoints, result
# records, traces) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sketchd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/sketchd and perfbench/)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/bin/sketchd" ./cmd/sketchd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -sketchd "$out/bin/sketchd" -workdir "$out" "$@"
