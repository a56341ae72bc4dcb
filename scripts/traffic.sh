#!/usr/bin/env bash
# The traffic run (DESIGN.md §4.18): builds every program of the repository
# with coverage instrumentation, runs one fixed command list that uses every
# lynxbench and lynxd flag at least once, merges the counters and checks the
# library functions no program executes against
# testdata/traffic_allowlist.txt. From the repository root:
#
#   make traffic
#
# Everything it writes lives under .bench_build/traffic.
set -euo pipefail

out=$PWD/.bench_build/traffic
rm -rf "$out"
bin=$out/bin cov=$out/cov run=$out/run
mkdir -p "$bin" "$cov" "$run"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/...
(cd bench/perf && go build -cover -coverpkg=lynx/... -o "$bin/perf" .)

# x runs one command of the list with its expected exit code (default 0).
x() {
	local want=0
	if [[ $1 == exit=* ]]; then
		want=${1#exit=}
		shift
	fi
	local code=0
	GOCOVERDIR=$cov "$bin/$@" >"$run/last.out" 2>&1 || code=$?
	if [[ $code != "$want" ]]; then
		echo "traffic: $* exited $code, want $want" >&2
		tail -20 "$run/last.out" >&2
		exit 1
	fi
	echo "ok   $*"
}

# lynxbench: the committed goldens' commands, the instrumented experiments'
# -obs artifacts, text mode, profiling and the usage errors.
x lynxbench -list
x lynxbench -exp all -scale 0.25 -seed 7 -csv
x exit=1 lynxbench -exp all -scale 0.25 -seed 7 -csv -batch 8
x exit=1 lynxbench -exp all -scale 0.25 -seed 3 -loss 0.01 -invariants -csv
x lynxbench -exp all -scale 0.25 -parallel 1
x lynxbench -exp attribution -scale 0.25 -seed 7 -obs "$run/attribution"
x lynxbench -exp replbreakdown -scale 0.25 -seed 7 -obs "$run/replbreakdown"
x lynxbench -exp breakdown -scale 0.25 -seed 7 -obs "$run/breakdown"
x lynxbench -exp fig6 -scale 0.1 -top 5 -cpuprofile "$run/cpu.pprof" -memprofile "$run/mem.pprof"
x exit=2 lynxbench -exp all -obs "$run/bad"
x exit=2 lynxbench -exp fig6 -loss 2
x exit=1 lynxbench -exp nope

# lynxd: its goldens, then every flag: platforms, open loop, batching,
# faults with retries and a queue stall, tracing and -obs, and the rack.
x lynxd -app echo -secs 0.05 -clients 4 -queues 2
x lynxd -app lenet -secs 0.02 -clients 2
x lynxd -nodes 3 -secs 0.02
x lynxd -platform xeon -cores 4 -rate 20000 -secs 0.05 -seed 2 -batch 8 -invariants
x lynxd -secs 0.3 -loss 0.01 -dup 0.01 -rdma-err 0.01 -retries 3 -stall-queue 1 -stall-at 50ms -stall-for 100ms -invariants
x lynxd -secs 0.05 -trace 3 -obs "$run/lynxd"
x lynxd -nodes 3 -replicas 3 -secs 0.2 -stall-queue -1 -stall-at 50ms -stall-for 10s -invariants
x lynxd -nodes 3 -replicas 3 -secs 0.1 -invariants -obs "$run/lynxd-rack"
x exit=2 lynxd -app nope
x exit=2 lynxd -nodes 3 -app lenet
x exit=2 lynxd -dup 1.5

x lynxtopo
x lynxtopo -json
x benchcmp bench/sim_engine.txt bench/sim_engine.txt
for e in quickstart lenet faceverify scaleout securevca pipeline; do
	x "$e"
done
for w in echo-udp echo-tcp lenet kv-rack; do
	x perf -workload "$w" -seed 1 -seconds 0.5 -trace 0 -profiles "$run/perf-profiles"
	# The run's JSON line as both sides of one make ab pair, for abcmp.
	for side in base change; do
		printf '{"side":"%s","workload":"%s","pair":0,"run":%s}\n' "$side" "$w" "$(tail -n 1 "$run/last.out")" >>"$run/ab.jsonl"
	done
done
x perf -workload kv-rack -seed 1 -seconds 0.5 -trace 1 -profiles "$run/perf-profiles"
x abcmp BENCHMARK.json "$run/ab.jsonl"

# TestTraffic reads the merged profile while it exists; it is removed on
# exit, so a later `go test ./...` skips the test instead of checking a
# profile of older code. The counters stay in $cov.
trap 'rm -f "$out/profile.txt"' EXIT
go tool covdata textfmt -i "$cov" -o "$out/profile.txt"
go test -count=1 -run '^TestTraffic$' -v .
