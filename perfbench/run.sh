#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload gc-steady --seed 7 --seconds 20 --trace 0
#
# Every build output and Go cache stays under .bench_build/ in the
# checkout. Outside a complete checkout the build fails and nothing is
# printed on stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
cd "$here"
go build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
