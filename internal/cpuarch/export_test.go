package cpuarch

import "lynx/internal/sim"

// Name returns the machine name.
func (m *Machine) Name() string { return m.name }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return m.nCores }

// Cores exposes the core pool for callers that schedule explicit core
// occupancy (e.g. the host-centric server's worker threads).
func (m *Machine) Cores() *sim.Resource { return m.cores }

// Noisy reports whether the neighbor is active.
func (m *Machine) Noisy() bool { return m.noisy }

// Stalls reports injected LLC interference stalls.
func (m *Machine) Stalls() uint64 { return m.stalls }

// Execs reports the number of Exec calls (for utilization accounting).
func (m *Machine) Execs() uint64 { return m.execs }
