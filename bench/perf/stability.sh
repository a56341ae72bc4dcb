#!/usr/bin/env bash
# Checks that the benchmark agrees with itself. From the repository root:
#
#   bash bench/perf/stability.sh [-n runs] [-s seed] [-v]
#
# Runs every workload n times (default 5) in each of two sets, A and B, in
# alternating order: A then B, forward through the workloads, then B then A,
# backward, and so on. Every run uses seed s (default 1); with -v, run i of a
# set uses seed s+i instead, as a check across inputs does. For each
# workload and end-to-end metric it prints each set's median and quartile
# spread (Q3-Q1 over the median, as statistics.quantiles gives them) and
# whether the two medians agree within the metric's bound in BENCHMARK.json.
# It exits non-zero if any pair disagrees or any run fails. Every run's JSON
# line is kept in $CARGO_TARGET_DIR/stability.jsonl (default .bench_build).
set -euo pipefail

runs=5 seed=1 vary=0
while getopts "n:s:v" opt; do
	case $opt in
	n) runs=$OPTARG ;;
	s) seed=$OPTARG ;;
	v) vary=1 ;;
	*) exit 2 ;;
	esac
done

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
log=$out/stability.jsonl
: >"$log"
read -r secs workloads < <(python3 -c 'import json; b = json.load(open("BENCHMARK.json")); print(b["run_seconds"], *(w["name"] for w in b["workloads"]))')

for ((i = 0; i < runs; i++)); do
	s=$seed
	((vary)) && s=$((seed + i))
	order=$workloads sets="A B"
	if ((i % 2)); then
		order=$(printf '%s\n' $workloads | tac | tr '\n' ' ') sets="B A"
	fi
	for w in $order; do
		for set in $sets; do
			line=$(bash bench/perf/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 | tail -n 1)
			printf '{"set":"%s","workload":"%s","seed":%d,"run":%s}\n' "$set" "$w" "$s" "$line" >>"$log"
			echo "run $((i + 1))/$runs set $set $w seed $s done" >&2
		done
	done
done

python3 - "$log" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
ok = True
for r in rows:
    if not r["run"]["correct"] or r["run"]["failed"]:
        print("FAIL: %s set %s seed %d: correct=%s failed=%d" % (
            r["workload"], r["set"], r["seed"], r["run"]["correct"], r["run"]["failed"]))
        ok = False

def stats(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0
    q = statistics.quantiles(vals, n=4)
    return med, (q[2] - q[0]) / med

print("%-9s %-20s %14s %7s %14s %7s %7s %6s" % ("workload", "metric", "median A", "iqr A", "median B", "iqr B", "B/A-1", "bound"))
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        a, b = ([r["run"]["metrics"][m["name"]]["value"] for r in rows
                 if r["workload"] == w["name"] and r["set"] == s] for s in "AB")
        (ma, sa), (mb, sb) = stats(a), stats(b)
        diff = mb / ma - 1
        agree = abs(diff) <= m["bound"]
        ok = ok and agree
        print("%-9s %-20s %14.6g %6.1f%% %14.6g %6.1f%% %6.1f%% %5.0f%% %s" % (
            w["name"], m["name"], ma, 100 * sa, mb, 100 * sb, 100 * diff, 100 * m["bound"],
            "ok" if agree else "DISAGREE"))
print("stable" if ok else "NOT STABLE")
sys.exit(0 if ok else 1)
EOF
