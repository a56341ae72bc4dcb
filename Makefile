# Convenience targets for the Lynx reproduction.

GO ?= go

.PHONY: all test bench bench-compare bench-perf sentinel-baseline sentinel-check eval examples vet clean

all: vet test

test:
	$(GO) test ./...

vet:
	gofmt -l . && $(GO) vet ./...

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

# Regression sentinel: record a full attribution baseline artifact (profile
# report, scorecard claims, knee predictions, rack telemetry sections), and
# diff the current build against the committed seed baseline. SENTINEL_SCALE matches the committed artifact; a schema or model
# change needs `make sentinel-baseline` to refresh bench/sentinel_baseline.json.
SENTINEL_SCALE ?= 0.25
sentinel-baseline:
	$(GO) run ./cmd/lynxbench -baseline bench/sentinel_baseline.json -scale $(SENTINEL_SCALE)

sentinel-check:
	$(GO) run ./cmd/lynxbench -compare bench/sentinel_baseline.json -scale $(SENTINEL_SCALE)

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
