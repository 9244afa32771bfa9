#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it.
# Every build artefact (binary, Go build cache, Go config and telemetry)
# stays under .bench_build at the checkout root.
#
#   bash bench/run.sh --workload engine-hourly --seed 42 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/powerroute-bench" .
cd "$root"
exec "$out/powerroute-bench" "$@"
