// Wall-clock benchmarks of the whole evaluation and of the observability
// plane. The evaluation's tables and figures come from
// `go run ./cmd/lynxbench -exp <id>` (or `-exp all`), and the scorecard
// (TestScorecard) gates their headline numbers.
package lynx_test

import (
	"testing"

	"lynx/internal/experiments"
)

// BenchmarkTraceOverhead runs the same BlueField echo deployment with the
// observability plane fully enabled (span table + event ring + samplers)
// and fully disabled, so the two sub-benchmark wall times quantify the real
// (host CPU) cost of tracing. The simulated virtual-time results are
// identical by construction — asserted by TestBreakdownDisabledIsFree.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := experiments.BreakdownRun(experiments.Config{Seed: uint64(i + 1), Scale: 0.3}, traced)
			if res.Received == 0 {
				b.Fatal("no responses measured")
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// BenchmarkFullEval regenerates a scaled-down copy of every experiment per
// iteration through one experiments.Run, as `lynxbench -exp all` does, so a
// point several experiments read is simulated once per iteration — the
// end-to-end number that the sweep worker pool, the point memo and the DES
// hot-path work target. The sequential/parallel pair quantifies the sweep
// scheduler's speedup on this machine (they are identical by construction on
// a single-core runner).
func BenchmarkFullEval(b *testing.B) {
	run := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := experiments.Config{Seed: uint64(i + 1), Scale: 0.1, Workers: workers}
			if _, err := experiments.Run(cfg, experiments.List()...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, experiments.AutoWorkers) })
}
