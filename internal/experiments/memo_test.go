package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lynx/internal/fault"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/workload"
)

// histPoint is a stand-in point whose result carries a histogram, like every
// workload.Result a real point returns.
type histPoint struct{ v time.Duration }

func (p histPoint) run(Config) workload.Result {
	h := metrics.NewHistogram()
	h.Record(p.v)
	return workload.Result{Received: 1, Hist: h}
}

// Two workers asking for one point in flight cause one simulation: the
// second waits for the first instead of simulating again (run with -race).
func TestMemoSingleFlight(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.05, Workers: 4}
	m := &memo{cells: make(map[memoKey]*memoCell)}
	p := fig6Cell{platLynxBF, 20 * time.Microsecond, 1}
	var runs atomic.Int32
	vals := make([]float64, 8)
	cfg.sweep(len(vals), func(i int) {
		vals[i] = m.get(cfg, p, func() any {
			runs.Add(1)
			return p.run(cfg)
		}).(float64)
	})
	if runs.Load() != 1 {
		t.Fatalf("%d simulations for one point, want 1", runs.Load())
	}
	for i, v := range vals {
		if v != vals[0] || v == 0 {
			t.Fatalf("worker %d got %v, worker 0 got %v", i, v, vals[0])
		}
	}
	if m.simulated != 1 || m.fromMemo != len(vals)-1 {
		t.Fatalf("%d simulated, %d from memo; want 1, %d", m.simulated, m.fromMemo, len(vals)-1)
	}
}

// Every caller gets its own histogram: recording into one, even the copy the
// simulating caller got, leaves the next hit unchanged.
func TestMemoCopyOnHit(t *testing.T) {
	cfg := Config{Seed: 1}.newRun()
	p := histPoint{time.Microsecond}
	a := measure(cfg, p)
	a.Hist.Record(time.Second)
	b := measure(cfg, p)
	b.Hist.Record(time.Second)
	c := measure(cfg, p)
	if c.Hist.Count() != 1 || c.Hist.Max() != time.Microsecond {
		t.Fatalf("hit sees a caller's mutation: count %d, max %v", c.Hist.Count(), c.Hist.Max())
	}
	if m := cfg.memo; m.simulated != 1 || m.fromMemo != 2 {
		t.Fatalf("%d simulated, %d from memo; want 1, 2", m.simulated, m.fromMemo)
	}
}

// A Config that differs in a field a result depends on (Seed, Scale, Faults,
// Batch) misses; one that differs only in how the run is executed hits.
func TestMemoKeyedOnConfig(t *testing.T) {
	base := Config{Seed: 1, Scale: 0.25}
	var misses []Config
	for _, edit := range []func(*Config){
		func(c *Config) { c.Seed = 2 },
		func(c *Config) { c.Scale = 0.5 },
		func(c *Config) { c.Faults = fault.Config{Seed: 1, DropRate: 0.01} },
		func(c *Config) { c.Faults = fault.Config{Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1}}} },
		func(c *Config) { c.Batch = model.BatchConfig{Doorbell: 8} },
	} {
		c := base
		edit(&c)
		misses = append(misses, c)
	}
	hit := base
	hit.Workers = 4
	m := &memo{cells: make(map[memoKey]*memoCell)}
	runs := 0
	get := func(cfg Config) { m.get(cfg, histPoint{}, func() any { runs++; return nil }) }
	get(base)
	for i, c := range misses {
		if get(c); runs != i+2 {
			t.Fatalf("config %+v hit the memo", c)
		}
	}
	if get(hit); runs != len(misses)+1 {
		t.Fatal("a config differing only in Workers missed the memo")
	}
}

// With cfg.Top set the memo is bypassed: every request simulates, so every
// testbed feeds its slowest spans to the collector and the -top table of a
// Run is the table of its experiments run one by one.
func TestMemoBypassedWithTop(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.05, Workers: 1}
	shared, separate := NewTopCollector(10), NewTopCollector(10)
	cfg.Top = shared
	out, err := Run(cfg, "sentinel", "sentinel")
	if err != nil {
		t.Fatal(err)
	}
	if out.Simulated != 8 || out.FromMemo != 0 {
		t.Fatalf("%d simulated, %d from memo; want 8, 0", out.Simulated, out.FromMemo)
	}
	cfg.Top = separate
	for i := 0; i < 2; i++ {
		runReport(t, cfg, "sentinel")
	}
	if len(shared.entries) != len(separate.entries) || len(shared.entries) == 0 {
		t.Fatalf("collected %d spans in one Run, %d in separate Runs", len(shared.entries), len(separate.entries))
	}
	if a, b := shared.Table().String(), separate.Table().String(); a != b {
		t.Fatalf("-top table differs:\n%s\nvs\n%s", a, b)
	}
}

// Every experiment measures through points (measure, measureAll), so the
// memo, the -invariants aggregate and the scorecard reach every number it
// prints. Only the sweep scheduler itself, the scorecard's metric fan-out
// and the sentinel's knee fan-out call sweep directly.
func TestNoExperimentSweepsByIndex(t *testing.T) {
	allowed := map[string]bool{"sweep.go": true, "scorecard.go": true, "sentinel.go": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || allowed[name] {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "sweep" {
					t.Errorf("%s: sweep by index; measure points through measure or measureAll instead", fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
}
