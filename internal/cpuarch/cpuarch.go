// Package cpuarch models the compute platforms request processing runs on:
// machines with a number of cores of a given microarchitecture (Xeon host,
// BlueField ARM complex, VCA E3 nodes), plus the last-level-cache
// interference that makes co-located workloads hazardous (§3.2).
//
// Costs everywhere in the repository are calibrated for one Xeon core;
// Machine.Exec scales them by the core kind's speed factor and injects
// noisy-neighbor stalls when a cache-thrashing tenant shares the socket —
// the effect Lynx's SNIC offload eliminates (§6.2 "Performance isolation").
package cpuarch

import (
	"time"

	"lynx/internal/model"
	"lynx/internal/sim"
)

// Machine is a processor complex: N identical cores plus a shared LLC.
type Machine struct {
	sim    *sim.Sim
	params *model.Params
	name   string
	kind   model.CPUKind
	nCores int
	cores  *sim.Resource

	noisy  bool
	stalls uint64
	execs  uint64
}

// New creates a machine with n cores of the given kind.
func New(s *sim.Sim, p *model.Params, name string, kind model.CPUKind, n int) *Machine {
	return &Machine{
		sim:    s,
		params: p,
		name:   name,
		kind:   kind,
		nCores: n,
		cores:  sim.NewResource(s, n),
	}
}

// Kind returns the core microarchitecture.
func (m *Machine) Kind() model.CPUKind { return m.kind }

// SetNoisy toggles the cache-thrashing neighbor (§3.2: a 1140x1140 matrix
// product that fully occupies the LLC).
func (m *Machine) SetNoisy(on bool) { m.noisy = on }

// Scale converts a Xeon-calibrated cost to this machine's cores.
func (m *Machine) Scale(cost time.Duration) time.Duration {
	return model.ScaleCPU(cost, m.kind)
}

// Exec charges the calling process the Xeon-calibrated cost, scaled to this
// machine's cores, plus any interference stall. The caller is assumed to
// already own a core (one long-running process per pinned thread, the
// deployment style of every server in the paper).
func (m *Machine) Exec(p *sim.Proc, cost time.Duration) {
	m.execs++
	d := m.Scale(cost)
	if m.noisy {
		// Baseline degradation: every memory access fights the neighbor
		// for LLC fill bandwidth.
		d = time.Duration(float64(d) * (1 + m.params.NeighborSlowdown/2))
		// Occasionally the working set is fully evicted and the request
		// takes a multi-hundred-microsecond refill hit; this is what blows
		// up the p99 13x in §3.2.
		if m.sim.Rand().Float64() < m.params.LLCInterferenceProb {
			m.stalls++
			frac := 0.55 + 0.45*m.sim.Rand().Float64()
			d += time.Duration(frac * float64(m.params.LLCInterferenceP99))
		}
	}
	p.Sleep(d)
}

// ExecOn acquires a core, runs Exec, and releases the core: for short tasks
// scheduled onto a shared pool rather than a pinned thread.
func (m *Machine) ExecOn(p *sim.Proc, cost time.Duration) {
	m.cores.Acquire(p)
	m.Exec(p, cost)
	m.cores.Release()
}
