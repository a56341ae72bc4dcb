# Convenience targets for the Lynx reproduction.

GO ?= go

.PHONY: all test bench bench-compare bench-perf ab goldens eval examples vet loc flags spawns traffic clean

all: vet test

test:
	$(GO) test ./...

vet:
	gofmt -l . && $(GO) vet ./...

# The size every simplicity change reports: non-test Go and assembly (.s)
# lines outside bench/perf (the benchmark's own module), blank and
# //-comment lines excluded.
loc:
	@find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path './bench/perf/*' -exec cat {} + | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'

# The option count the ROADMAP tracks: flag definitions (fs.Int("name",
# fs.String("name", ...) in each binary's non-test Go files, then the total.
flags:
	@for d in cmd/lynxd cmd/lynxbench; do \
		printf '%s %s\n' $$d $$(cat $$(ls $$d/*.go | grep -v _test.go) | grep -cE 'fs\.[A-Z][A-Za-z0-9]*\("'); \
	done | awk '{ print; n += $$2 } END { print "total", n }'

# The process spawn sites ROADMAP items 10 and 11 track: non-test call sites
# of Spawn(, SpawnTask( and LaunchPersistent( outside bench/perf, per kind,
# then the total. Comment lines and func declarations (the lynx facade's
# forwarders) do not count.
spawns:
	@for k in Spawn SpawnTask LaunchPersistent; do \
		printf '%s %s\n' $$k $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/perf/*' -exec cat {} + | grep -v '^[[:space:]]*//' | grep -v '^func ' | grep -oE "\.$$k\(" | wc -l); \
	done | awk '{ print; n += $$2 } END { print "total", n }'

# The traffic run (DESIGN.md §4.18): every program, built with coverage, runs
# one fixed command list (scripts/traffic.sh); prints each library package's
# statement coverage and fails on a library function no program executes
# that testdata/traffic_allowlist.txt does not name, or on a listed one that
# runs. Everything it writes lives under .bench_build/traffic.
traffic:
	bash scripts/traffic.sh

# Benchmark with -count=5 so runs can be compared statistically:
#   make bench | tee old.txt ; <hack> ; make bench | tee new.txt
#   go run ./cmd/benchcmp old.txt new.txt
bench:
	$(GO) test -bench=. -benchmem -count=5 ./...

# Statistical comparison of the scheduler benchmarks against a recorded
# baseline, using the bundled dependency-free comparator (cmd/benchcmp —
# benchstat needs network access to install, this repo builds offline). It
# is the one place go-benchmark samples are compared; a recording compares
# only with one made right after it on the same machine (bench/README.md).
# Rows present in both files are compared. Override BASELINE to diff against
# a different recording, e.g.:
#   make bench-compare BASELINE=old.txt
BASELINE ?= bench/sim_engine.txt
bench-compare:
	$(GO) test -run '^$$' -bench BenchmarkSimEngine -benchmem -count=10 ./internal/sim/ | tee bench_new.txt
	$(GO) run ./cmd/benchcmp $(BASELINE) bench_new.txt

# The repository's benchmark (bench/perf/README.md): one run of each of its
# four workloads, one JSON line each. Per-layer numbers: PERF_ARGS='--trace 1'.
PERF_ARGS ?= --seed 1 --seconds 10 --trace 0
bench-perf:
	for w in echo-udp echo-tcp lenet kv-rack; do bash bench/perf/run.sh --workload $$w $(PERF_ARGS) || exit 1; done

# Parent-versus-change pairs on the repository benchmark (scripts/ab.sh): REV
# against the working tree, N alternating pairs (default 10) per workload at
# BENCHMARK.json's run_seconds, judged by cmd/abcmp with the pair rule of
# internal/bench. Optional: SEED (default 1), WORKLOADS (default all), e.g.
#   make ab REV=HEAD~1 WORKLOADS=echo-udp SEED=2
ab:
	REV="$(REV)" N="$(N)" SEED="$(SEED)" WORKLOADS="$(WORKLOADS)" bash scripts/ab.sh

# Re-record the goldens TestGoldens checks (internal/experiments/testdata:
# the pinned -exp all CSVs, the attribution and rack JSON artifacts, the path
# reports and traces; cmd/lynxd/testdata: lynxd's stdout) after an
# intentional change to simulated behaviour; `git diff` then shows which
# lines moved. DESIGN.md §4.13 lists them.
goldens:
	LYNX_UPDATE_GOLDENS=1 $(GO) test ./internal/experiments/ ./cmd/lynxd/ -run TestGoldens -count=1

# Regenerate every table and figure of the paper's evaluation.
eval:
	$(GO) run ./cmd/lynxbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/lenet
	$(GO) run ./examples/faceverify
	$(GO) run ./examples/scaleout
	$(GO) run ./examples/securevca
	$(GO) run ./examples/pipeline

clean:
	$(GO) clean ./...
