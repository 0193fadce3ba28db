#!/usr/bin/env bash
# Builds the wall-clock benchmark from the sources of the checkout that
# holds this script, then runs it with the given arguments:
#
#   bash wallbench/run.sh --workload passive-steady --seed 1 --seconds 10 --trace 0
#
# Every build artifact and Go cache stays under .bench_build/ at the root
# of the checkout, and no module is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/wallbench" && go build -o "$out/wallbench" .)
exec "$out/wallbench" -root "$root" "$@"
