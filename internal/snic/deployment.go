package snic

import (
	"fmt"
	"path/filepath"

	"lynx/internal/core"
	"lynx/internal/metrics"
	"lynx/internal/netstack"
	"lynx/internal/profile"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

// NodeName names deployment node i: the machine server<i+1>. A single
// server is node 0.
func NodeName(i int) string { return fmt.Sprintf("server%d", i+1) }

// Arm arms node i's observability plane — span table with its event ring
// (the table's invariants on the testbed's checker), flight recorder and
// metrics registry — sized by opts, once; later calls return the armed
// plane.
func (tb *Testbed) Arm(node int, opts profile.Options) *profile.Profile {
	for len(tb.planes) <= node {
		tb.planes = append(tb.planes, nil)
	}
	if tb.planes[node] == nil {
		tb.planes[node] = profile.New(opts, tb.Check)
	}
	return tb.planes[node]
}

// Plane returns node i's observability plane, or nil when it is not armed.
func (tb *Testbed) Plane(node int) *profile.Profile {
	if node >= len(tb.planes) {
		return nil
	}
	return tb.planes[node]
}

// Platform wires node i's plane into plat (its span table, unless plat
// carries one); an unarmed node leaves plat as it is.
func (tb *Testbed) Platform(node int, plat core.Platform) core.Platform {
	return tb.Plane(node).Platform(plat)
}

// Monitor starts rt's utilization monitor, sampling into node i's plane;
// call it after rt.Start. The fault counters are deployment-wide, so they
// join the plane only when it is the deployment's one plane (a single
// server); a rack's registries stay per node. Unarmed nodes are a no-op.
func (tb *Testbed) Monitor(node int, rt *core.Runtime) {
	p := tb.Plane(node)
	if p == nil {
		return
	}
	p.Monitor(rt)
	if len(tb.planes) == 1 {
		p.Registry().AddStats("faults", func() []metrics.Stat {
			st := tb.Faults.Stats()
			return []metrics.Stat{
				{Name: "datagrams_dropped", Value: float64(st.DatagramsDropped)},
				{Name: "datagrams_duplicated", Value: float64(st.DatagramsDuplicated)},
				{Name: "tcp_delays", Value: float64(st.TCPDelays)},
				{Name: "rdma_errors", Value: float64(st.RDMAErrors)},
				{Name: "stall_hits", Value: float64(st.StallHits)},
			}
		})
	}
}

// Load creates a workload generator from clients on the testbed's clock.
// Its Check defaults to the testbed's checker, so the generator's request
// ledger joins the deployment's invariants, and its Spans to node 0's span
// table.
func (tb *Testbed) Load(cfg workload.Config, clients ...*netstack.Host) *workload.Generator {
	if cfg.Check == nil {
		cfg.Check = tb.Check
	}
	if cfg.Spans == nil {
		cfg.Spans = tb.Plane(0).Spans()
	}
	return workload.New(tb.Sim, cfg, clients...)
}

// Measure runs a Load workload to completion and returns its result.
func (tb *Testbed) Measure(cfg workload.Config, clients ...*netstack.Host) workload.Result {
	return workload.RunFor(tb.Sim, tb.Load(cfg, clients...))
}

// TraceExport returns every armed node's plane as one timeline node each,
// in node order; render them with trace.WriteJSON.
func (tb *Testbed) TraceExport() []trace.Export {
	out := make([]trace.Export, len(tb.planes))
	for i, p := range tb.planes {
		out[i] = p.Export(NodeName(i))
	}
	return out
}

// TelemetrySnapshot merges every node's metrics registry into one rollup,
// in node order, so the dump is byte-deterministic for a deterministic run.
// With more than one plane each component snapshot and sampled series
// reappears under a "<node>/" prefix; a one-plane rollup is that plane's
// registry. Stats are frozen at snapshot time.
func (tb *Testbed) TelemetrySnapshot() *metrics.Registry {
	out := metrics.NewRegistry()
	for i, p := range tb.planes {
		reg := p.Registry()
		if reg == nil {
			continue
		}
		prefix := ""
		if len(tb.planes) > 1 {
			prefix = NodeName(i) + "/"
		}
		for _, cs := range reg.StatsSnapshot() {
			stats := cs.Stats
			out.AddStats(prefix+cs.Component, func() []metrics.Stat { return stats })
		}
		for _, s := range reg.SeriesList() {
			out.AddSeries(s.Renamed(prefix + s.Name()))
		}
	}
	return out
}

// ArmPostmortem arranges for node 0's report to be dumped into the
// observability directory dir, as profile.PostmortemFile, the first time an
// invariant fires. A no-op without the checker or node 0's plane.
func (tb *Testbed) ArmPostmortem(dir string) {
	tb.Plane(0).ArmPostmortem(tb.Check, filepath.Join(dir, profile.PostmortemFile))
}

// WriteObs writes the deployment's artifacts into the observability
// directory dir: the timeline of every armed node, the metrics rollup and
// report (node 0's attribution report, say), calling done for each file.
func (tb *Testbed) WriteObs(dir string, report *profile.Report, done func(what, path string)) error {
	return profile.WriteDir(dir, tb.TraceExport(), tb.TelemetrySnapshot(), report, done)
}
