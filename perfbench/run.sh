#!/usr/bin/env bash
# Builds roaserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-open --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/roaserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/roaserve and perfbench/ not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# Keep the go command's cache, temp files and config (telemetry counters
# included) inside the checkout, and never let it fetch anything.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$out/bin/roaserve" ./cmd/roaserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --roaserve "$out/bin/roaserve" --out "$out" "$@"
