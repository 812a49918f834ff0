#!/usr/bin/env bash
# ab.sh — same-host A/B of the end-to-end benchmark: this checkout
# (head, working tree included) against a base revision.
#
# Usage:
#   scripts/ab.sh [-n PAIRS] [-w WORKLOAD[,WORKLOAD...]] [-s SEED] <rev>
#
#   -n  interleaved base/head pairs per workload (default 10)
#   -w  perfbench workloads (default sweep-setup)
#   -s  perfbench --seed (default 1)
#
# <rev> is checked out in a temporary git worktree, removed on exit. Each
# pair runs `bash perfbench/run.sh --workload W --trace 0` once on each
# side, for the benchmark's run_seconds (BENCHMARK.json), alternating
# which side runs first, so drift on the host lands on both. scripts/abstat then prints, per metric, each side's median and
# IQR, wins/N and the verdict: head wins at least 9 of every 10 pairs and
# its median beats the base median by more than the base IQR. The raw
# runs are kept in ab-results.txt in this checkout.
#
#   scripts/ab.sh -n 10 -w sweep-setup,gc-steady HEAD~1
set -euo pipefail
self="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
cd "$(dirname "$0")/.."

pairs=10
workloads=sweep-setup
seed=1
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
usage() {
	sed -n '2,/^set -e/p' "$self" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
}
while getopts n:w:s: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workloads=$OPTARG ;;
	s) seed=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || usage
rev=$(git rev-parse --verify "$1^{commit}")

base=$(mktemp -d "${TMPDIR:-/tmp}/ab-base.XXXXXX")
cleanup() {
	git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
	git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$base" "$rev"

results=ab-results.txt
: >"$results"

# one SIDE DIR WORKLOAD PAIR: run perfbench once and record its last line.
one() {
	local line
	line=$(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
	if [ -z "$line" ]; then
		echo "ab.sh: $1 run of $3 (pair $4) printed nothing" >&2
		exit 1
	fi
	echo "$3 $1 $4 $line" >>"$results"
}

echo "ab.sh: base $(git rev-parse --short "$rev"), head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+changes'), seed $seed, ${seconds}s runs" >&2
for w in ${workloads//,/ }; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			one base "$base" "$w" "$i"
			one head . "$w" "$i"
		else
			one head . "$w" "$i"
			one base "$base" "$w" "$i"
		fi
		echo "ab.sh: $w pair $i/$pairs done" >&2
	done
done
go run ./scripts/abstat <"$results"
