package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
)

// contract reads the metric names and units BENCHMARK.json promises for
// trace 0 (end to end) or trace 1 (per layer).
func contract(t *testing.T, traced bool) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	units := map[string]string{}
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	return units
}

// checkMetrics fails unless rep reports exactly the promised metrics.
func checkMetrics(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := rep.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("metric %s = %+v, want unit %s", name, m, unit)
		}
	}
	for name := range rep.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

// simulated picks a report's simulated metrics: everything a run of the same
// seed and window must reproduce bit for bit.
type simulated struct {
	attempted, failed uint64
	goodput, p50, p99 float64
}

func simOf(t *testing.T, rep *report) simulated {
	t.Helper()
	return simulated{
		attempted: rep.Attempted, failed: rep.Failed,
		goodput: rep.Metrics["sim_goodput_rps"].Value,
		p50:     rep.Metrics["sim_p50_us"].Value,
		p99:     rep.Metrics["sim_p99_us"].Value,
	}
}

func mustBench(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := bench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Every workload at a hundredth of its window answers every request
// correctly and reports every end-to-end metric, none of them zero.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	want := contract(t, false)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep := mustBench(t, config{workload: w.name, seed: 1, seconds: 0.1})
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep, want)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}

// The simulated metrics depend on the seed and the window only: not on the
// run or the number of host threads.
func TestSimulationIsDeterministic(t *testing.T) {
	cfg := config{workload: "kv-rack", seed: 7, seconds: 0.01}
	want := simOf(t, mustBench(t, cfg))
	if got := simOf(t, mustBench(t, cfg)); got != want {
		t.Fatalf("second run: %+v, first %+v", got, want)
	}
	prev := runtime.GOMAXPROCS(1)
	got := simOf(t, mustBench(t, cfg))
	runtime.GOMAXPROCS(prev)
	if got != want {
		t.Fatalf("GOMAXPROCS 1: %+v, default %+v", got, want)
	}
	cfg.seed = 8
	if other := simOf(t, mustBench(t, cfg)); other == want {
		t.Fatalf("seeds 7 and 8 simulated the same: %+v", want)
	}
}

// A kernel that flips one byte of every 97th answer fails exactly those
// requests. Sequence numbers are issued in send order, so the window's
// requests hold a run of consecutive numbers.
func TestWrongAnswersFail(t *testing.T) {
	flip := func(b []byte) {
		if binary.LittleEndian.Uint64(b)%97 == 0 {
			b[len(b)-1] ^= 1
		}
	}
	rep := mustBench(t, config{workload: "echo-udp", seed: 1, seconds: 0.02, tamper: flip})
	if want := float64(rep.Attempted) / 97; rep.Correct || math.Abs(float64(rep.Failed)-want) > 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want about %.1f failed", rep.Correct, rep.Attempted, rep.Failed, want)
	}
}

// A traced run simulates exactly what its untraced twin does (bench fails
// otherwise) and reports every per-layer metric, on a single server and on
// a rack, whose tracing is wired differently.
func TestTracedRun(t *testing.T) {
	want := contract(t, true)
	for _, cfg := range []config{
		{workload: "echo-udp", seed: 1, seconds: 0.02},
		{workload: "kv-rack", seed: 1, seconds: 0.01},
	} {
		cfg.traced, cfg.profiles = true, t.TempDir()
		rep := mustBench(t, cfg)
		checkMetrics(t, rep, want)
		// So short a window may hold no CPU sample, but many allocations.
		var sum float64
		for _, l := range layers {
			sum += rep.Metrics[l+".alloc_bytes_per_req"].Value
		}
		if sum <= 0 {
			t.Errorf("%s: no allocation attributed", cfg.workload)
		}
		for _, name := range []string{"sim.events_per_req", "rdma.ops_per_req", "phase.queueing.wait_us",
			"phase.execution.service_us", "setup.warmup_s", "trace.cpu_ns_per_req"} {
			if rep.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", cfg.workload, name, rep.Metrics[name].Value)
			}
		}
	}
}

// A GET must return the value of the key's last acknowledged SET, or of an
// unanswered SET after it.
func TestKVChecksGets(t *testing.T) {
	k := newKVTraffic([]string{"key-000"})
	rng := rand.New(rand.NewPCG(1, 1))
	seq := uint64(0)
	send := func(set bool) []byte {
		for {
			seq++
			if req := k.next(rng, seq, true); k.set == set {
				return req
			}
		}
	}
	answer := func(body string) []byte { return append(binary.LittleEndian.AppendUint64(nil, seq), body...) }
	got := func(v []byte) []byte { return answer("VALUE key-000 0 16\r\n" + string(v) + "\r\nEND\r\n") }

	send(false)
	if !k.valid(got(kvPreload)) {
		t.Fatal("preloaded value rejected")
	}
	send(true)
	acked := bytes.Clone(k.value[:])
	if !k.valid(answer("STORED\r\n")) {
		t.Fatal("STORED rejected")
	}
	send(false)
	if k.valid(got(kvPreload)) {
		t.Fatal("value older than the last acknowledged SET accepted")
	}
	send(true)
	lost := bytes.Clone(k.value[:])
	if k.valid(nil) {
		t.Fatal("unanswered SET counted as answered")
	}
	for _, v := range [][]byte{acked, lost} {
		send(false)
		if !k.valid(got(v)) {
			t.Fatalf("GET of %q rejected after an unanswered SET", v)
		}
	}
	send(false)
	if k.valid(got(kvPreload)) {
		t.Fatal("stale value accepted after an unanswered SET")
	}
}
