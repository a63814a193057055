#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.  Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload suite-live --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/harness" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a full ilplimit checkout" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters, which it
# writes under the user config directory, inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off \
	XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
