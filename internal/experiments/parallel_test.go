package experiments

import (
	"testing"
)

// TestParallelSweepDeterminism is the parallelism guard: one sweep experiment
// run sequentially and with a worker pool must render byte-identical reports
// and CSV. Every sweep point builds its own Sim, so the only way the outputs
// can differ is a point result leaking across workers or rows being
// assembled in completion order — exactly the bugs this test pins down.
// fig8a's points share one *lenet.Network, so under -race it also checks
// that the network's classification memo is safe across workers.
func TestParallelSweepDeterminism(t *testing.T) {
	base := Config{Seed: 7, Scale: 0.05}
	for _, id := range []string{"fig6", "degradation", "fig8a"} {
		seqCfg := base
		seqCfg.Workers = 1
		parCfg := base
		parCfg.Workers = 4

		seq, err := Run(id, seqCfg)
		if err != nil {
			t.Fatalf("sequential %s: %v", id, err)
		}
		par, err := Run(id, parCfg)
		if err != nil {
			t.Fatalf("parallel %s: %v", id, err)
		}
		if seq.String() != par.String() {
			t.Errorf("%s: parallel report differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seq, par)
		}
		if seq.CSV() != par.CSV() {
			t.Errorf("%s: parallel CSV differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seq.CSV(), par.CSV())
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
	if _, err := Run("sec51-barrier", cfg); err != nil {
		t.Fatalf("run with AutoWorkers: %v", err)
	}
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
