#!/usr/bin/env bash
# A/B comparison of a parent revision and the working tree on the repository
# benchmark (bench/perf). From the repository root:
#
#   make ab REV=<rev> [N=10] [SEED=1] [WORKLOADS="echo-udp kv-rack"]
#
# Checks REV out into a git worktree under .bench_build/ab, builds both
# trees' bench/perf, and runs N pairs (default 10) of every workload (default:
# all of BENCHMARK.json's) at BENCHMARK.json's run_seconds with tracing off,
# alternating which side runs first: pair i runs the workloads forward, REV
# first, when i is even, and backward, the working tree first, when i is odd.
# Every run's JSON line is kept in .bench_build/ab/ab.jsonl. cmd/abcmp then
# prints, per workload and end-to-end metric, both medians, REV's
# interquartile range, the working tree's wins and the pair-rule verdict,
# and exits non-zero if any simulated metric (sim_*) or failed count differs
# within a pair.
set -euo pipefail

rev=${REV:?usage: make ab REV=<rev> [N=10] [SEED=1] [WORKLOADS=...]}
n=${N:-10}
seed=${SEED:-1}
out=$PWD/.bench_build/ab
base=$out/base
mkdir -p "$out/tmp"
log=$out/ab.jsonl
: >"$log"

git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
git worktree add --quiet --detach "$base" "$rev"
trap 'git worktree remove --force "$base"; git worktree prune' EXIT

read -r secs all < <(python3 -c 'import json; b = json.load(open("BENCHMARK.json")); print(b["run_seconds"], *(w["name"] for w in b["workloads"]))')
workloads=${WORKLOADS:-$all}

# Both trees build as bench/perf/run.sh builds, sharing one Go build cache.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$base/bench/perf" && go build -buildvcs=false -o "$out/perf-base" .)
(cd bench/perf && go build -buildvcs=false -o "$out/perf-change" .)
go build -o "$out/abcmp" ./cmd/abcmp

for ((i = 0; i < n; i++)); do
	order=$workloads sides="base change"
	if ((i % 2)); then
		order=$(printf '%s\n' $workloads | tac | tr '\n' ' ') sides="change base"
	fi
	for w in $order; do
		for side in $sides; do
			line=$("$out/perf-$side" -workload "$w" -seed "$seed" -seconds "$secs" -trace 0 -profiles "$out/profiles" | tail -n 1)
			printf '{"side":"%s","workload":"%s","pair":%d,"run":%s}\n' "$side" "$w" "$i" "$line" >>"$log"
			echo "pair $((i + 1))/$n $w $side done" >&2
		done
	done
done

"$out/abcmp" BENCHMARK.json "$log"
