#!/usr/bin/env sh
# bench.sh — run the simulator-speed benchmarks and fold the results into
# BENCH_simcore.json so the perf trajectory is tracked across PRs.
#
# Usage:
#   scripts/bench.sh                 # update "current" only
#   scripts/bench.sh -label PR1      # also upsert a history entry
#   scripts/bench.sh -check          # CI gate: compare against the
#                                    # baseline (±15%) instead of updating
#
# Extra args are passed to benchjson (see scripts/benchjson/main.go).
# COUNT=5 scripts/bench.sh raises the number of benchmark repetitions.
set -eu
cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
# Stage the benchmark output in a temp file rather than piping straight
# into benchjson: in a pipeline the go test exit status is discarded, so
# a benchmark that panics mid-run would feed partial results into the
# baseline (or the gate) without failing the script.
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
go test -run '^$' \
	-bench 'BenchmarkSimulatorThroughput$|BenchmarkEventSchedule$|BenchmarkNBDModel$|BenchmarkStripedVolume$|BenchmarkFSBufferedRead$|BenchmarkFSFsync$|BenchmarkKVGet$|BenchmarkKVPut$|BenchmarkUringSubmit$|BenchmarkCoreSchedule$|BenchmarkProbeDisabled$|BenchmarkProbeSpan$|BenchmarkDeviceSetup$|BenchmarkDeviceGC$' \
	-benchmem -count "$COUNT" . >"$TMP"
go run ./scripts/benchjson -out BENCH_simcore.json "$@" <"$TMP"

# Cross-check the //ullvet:noalloc annotations against the baseline the
# gate just updated (or checked): every bench= reference must resolve to
# a benchmark present in BENCH_simcore.json whose allocs/op is still
# within the zero-alloc budget, so the annotations and the allocs/op
# gate cannot drift apart silently.
go run ./cmd/ullvet -noalloc-xref BENCH_simcore.json ./...
