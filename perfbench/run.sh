#!/usr/bin/env bash
# Builds choreod (cmd/choreoctl) and the benchmark from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload design --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/choreoctl" ./cmd/choreoctl >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/choreoctl" -work "$out/work" "$@"
