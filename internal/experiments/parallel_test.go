package experiments

import (
	"testing"
)

// TestParallelSweepDeterminism is the parallelism and memo guard: every
// experiment of a Run, sequential or on a worker pool, alone or sharing the
// run's memo with experiments that read the same points, must render
// byte-identical reports and CSV to a fresh sequential Run of that experiment
// alone. Every sweep point builds its own Sim, so the only way the outputs
// can differ is a point result leaking across workers or experiments, or rows
// being assembled in completion order — exactly the bugs this test pins
// down. fig8a's points share one *lenet.Network, so under -race it also
// checks that the network's classification memo is safe across workers.
func TestParallelSweepDeterminism(t *testing.T) {
	base := Config{Seed: 7, Scale: 0.05}
	fresh := map[string]*Report{}
	for _, ids := range [][]string{{"fig6"}, {"degradation"}, {"fig8a"}, {"fig6", "scorecard", "sentinel"}} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			out, err := Run(cfg, ids...)
			if err != nil {
				t.Fatalf("%v: %v", ids, err)
			}
			for i, id := range ids {
				want, ok := fresh[id]
				if !ok {
					want = runReport(t, Config{Seed: base.Seed, Scale: base.Scale, Workers: 1}, id)
					fresh[id] = want
				}
				got := out.Reports[i]
				if got.String() != want.String() || got.CSV() != want.CSV() {
					t.Errorf("%s in Run%q at %d workers differs from a fresh sequential run\n--- fresh ---\n%s\n--- got ---\n%s",
						id, ids, workers, want, got)
				}
			}
		}
	}
}

// TestAutoWorkersResolves exercises the AutoWorkers sentinel end to end on a
// small sweep (it must behave like any other worker count, only sized by
// GOMAXPROCS).
func TestAutoWorkersResolves(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 0.05, Workers: AutoWorkers}
	if got := cfg.workers(); got < 1 {
		t.Fatalf("AutoWorkers resolved to %d", got)
	}
	runReport(t, cfg, "sec51-barrier")
}

// TestSweepPanicPropagates ensures a panicking sweep point surfaces on the
// caller goroutine (parallel errors must not vanish into workers).
func TestSweepPanicPropagates(t *testing.T) {
	cfg := Config{Workers: 4}
	defer func() {
		if recover() == nil {
			t.Fatal("expected the sweep point panic to propagate")
		}
	}()
	cfg.sweep(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
