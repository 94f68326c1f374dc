#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --list-metrics
#
# Run it from the repository root. Every build product, the Go build
# cache and the toolchain's scratch files stay under .bench_build/ in
# that directory. The build fails (and nothing is printed on stdout)
# when the simulator sources beside perfbench/ are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
