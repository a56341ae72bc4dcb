// The batch experiment is a repository extension (no paper counterpart): it
// sweeps the end-to-end batching configuration of PR 6 across mqueue counts
// on the Fig. 6 BlueField echo workload and reports where batching moves the
// dispatcher-serialization throughput knee that PR 5's profiler attributed.
package experiments

import (
	"fmt"
	"time"

	"lynx/internal/model"
)

func init() {
	register("batch", "throughput knee shift from end-to-end batching (extension; Fig. 6 workload)", batchExp)
}

// batchMQCounts are the swept ring counts: 1 is latency-bound, 32 approaches
// the per-message serialization knee, 240 sits far past it (the Fig. 6
// configuration where host-centric loses 15.3x).
var batchMQCounts = []int{1, 32, 240}

// batchConfigs are the swept configurations, unit first (the baseline every
// speedup is relative to), then doubling quanta around DefaultBatchConfig.
var batchConfigs = []struct {
	name string
	bc   model.BatchConfig
}{
	{"unit (batch=1)", model.BatchConfig{Doorbell: 1, CQDrain: 1, Quantum: 1}},
	{"quantum-2", model.BatchConfig{Doorbell: 2, CQDrain: 4, Quantum: 2}},
	{"quantum-4", model.BatchConfig{Doorbell: 4, CQDrain: 8, Quantum: 4}},
	{"quantum-8 (default)", model.DefaultBatchConfig()},
	{"quantum-16", model.BatchConfig{Doorbell: 16, CQDrain: 32, Quantum: 16}},
}

// batchReqTime is the request service time of the sweep: the shortest Fig. 6
// kernel, where per-message SNIC overheads — the costs batching amortizes —
// dominate the service time.
const batchReqTime = 20 * time.Microsecond

// batchCell is one (configuration, mqueues) cell: the Fig. 6 BlueField echo
// cell at the sweep's request time, with the testbed's Params carrying the
// given batching configuration. run measures its throughput in req/s.
type batchCell struct {
	bc  model.BatchConfig
	nMQ int
}

func (c batchCell) run(cfg Config) float64 {
	return fig6Cell{platLynxBF, batchReqTime, c.nMQ}.throughput(cfg, c.bc)
}

func batchExp(cfg Config) *Report {
	r := &Report{
		ID:    "batch",
		Title: "Throughput knee shift from end-to-end batching (extension; BlueField GPU echo, 20us, 64B UDP)",
	}
	for _, n := range batchMQCounts {
		r.Columns = append(r.Columns, fmt.Sprintf("%dmq", n))
	}
	var pts []batchCell
	for _, bcfg := range batchConfigs {
		for _, n := range batchMQCounts {
			pts = append(pts, batchCell{bcfg.bc, n})
		}
	}
	val := measureAll(cfg, pts)
	for _, bcfg := range batchConfigs {
		cells := make([]any, len(batchMQCounts))
		for ni, n := range batchMQCounts {
			v := val[batchCell{bcfg.bc, n}]
			base := val[batchCell{batchConfigs[0].bc, n}]
			cells[ni] = fmt.Sprintf("%s (%sx)", fmtFloat(v), fmtFloat(speedup(v, base)))
		}
		r.AddRow(bcfg.name, cells...)
	}
	r.Note("unit row is byte-identical to an unbatched runtime; speedups are vs that row's column")
	r.Note("amortized per quantum: doorbell issue, write-completion waits, dispatcher serialized section, TX sweep reads")
	r.Note("the knee moves right as the quantum grows; at 1mq batching is idle (no bursts to coalesce)")
	return r
}
