package core

import (
	"time"

	"lynx/internal/accel"
	"lynx/internal/metrics"
	"lynx/internal/netstack"
)

// CPUBusy reports accumulated runtime CPU time (for utilization probes).
func (rt *Runtime) CPUBusy() time.Duration { return rt.cpuBusy }

// SerialBusy reports accumulated time inside the serialized stack/dispatch
// section. Its occupancy against a single core is the dispatcher utilization
// (the section admits one worker at a time, so it saturates long before the
// aggregate core pool does).
func (rt *Runtime) SerialBusy() time.Duration { return rt.serialBusy }

// Accelerator returns the registered accelerator.
func (h *AccelHandle) Accelerator() accel.Accelerator { return h.acc }

// Port returns the listening port.
func (s *Service) Port() uint16 { return s.port }

// Stages reports the number of stages.
func (s *Service) Stages() int { return len(s.stages) }

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(from netstack.Addr, n int) int

// Pick implements Policy.
func (f PolicyFunc) Pick(from netstack.Addr, n int) int { return f(from, n) }

// Registry returns the registry the monitor samples into.
func (m *Monitor) Registry() *metrics.Registry { return m.reg }
