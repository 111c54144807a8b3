#!/usr/bin/env bash
# Builds boundedgd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own config (its
# telemetry counters) and the run's inputs and WALs all live under
# .bench_build/ in the checkout. Build logs go to standard error; the
# last line of standard output is the benchmark's result.
set -euo pipefail

if [ ! -f perfbench/go.mod ] || [ ! -d cmd/boundedgd ]; then
	echo "perfbench: run from the root of a boundedg checkout (cmd/boundedgd not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/boundedgd" ./cmd/boundedgd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -daemon "$out/bin/boundedgd" -work "$out/run" "$@"
