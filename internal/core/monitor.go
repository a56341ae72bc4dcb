// Monitor: the virtual-time probe process of the observability plane. At a
// fixed virtual interval it snapshots mqueue ring occupancy, SNIC core
// utilization, accelerator (GPU SM) utilization, NIC wire utilization and
// the dispatcher backlog, into bounded series registered in a
// metrics.Registry. Sampling only reads counters the simulation already
// maintains — it never touches a resource, channel or random stream — so
// enabling it cannot change any other component's virtual-time behaviour.
package core

import (
	"fmt"
	"time"

	"lynx/internal/metrics"
	"lynx/internal/sim"
)

// busyTimer is implemented by accelerators that accumulate execution time
// (accel.GPU); the monitor derives SM utilization from the deltas.
type busyTimer interface {
	BusyTime() time.Duration
	Resident() int
}

// Monitor samples one runtime's occupancy and utilization.
type Monitor struct {
	reg *metrics.Registry
}

// monitorSeriesCap bounds each sampled series (most recent samples kept).
const monitorSeriesCap = 4096

// StartMonitor spawns a probe process sampling the runtime every interval of
// virtual time into bounded series registered in reg (a new registry is
// created when reg is nil). It also registers the runtime's counter
// snapshot. Call it after Start, once services and accelerators are wired.
func (rt *Runtime) StartMonitor(interval time.Duration, reg *metrics.Registry) *Monitor {
	if interval <= 0 {
		interval = 100 * time.Microsecond
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Monitor{reg: reg}
	rt.RegisterStats(reg)

	coreUtil := reg.NewSeries("snic/core-util", monitorSeriesCap)
	dispatchUtil := reg.NewSeries("snic/dispatch-util", monitorSeriesCap)
	backlog := reg.NewSeries("snic/backlog", monitorSeriesCap)
	wireUtil := reg.NewSeries("net/wire-util", monitorSeriesCap)

	type handleProbe struct {
		h        *AccelHandle
		inflight *metrics.Series
		txlog    *metrics.Series
		smUtil   *metrics.Series
		busy     busyTimer
		lastBusy time.Duration
	}
	probes := make([]*handleProbe, 0, len(rt.handles))
	for _, h := range rt.handles {
		hp := &handleProbe{
			h:        h,
			inflight: reg.NewSeries(fmt.Sprintf("mq/%s/inflight", h.acc.Name()), monitorSeriesCap),
			txlog:    reg.NewSeries(fmt.Sprintf("mq/%s/tx-backlog", h.acc.Name()), monitorSeriesCap),
		}
		if bt, ok := h.acc.(busyTimer); ok {
			hp.busy = bt
			hp.smUtil = reg.NewSeries(fmt.Sprintf("accel/%s/sm-util", h.acc.Name()), monitorSeriesCap)
			hp.lastBusy = bt.BusyTime()
		}
		probes = append(probes, hp)
	}

	// Replication plane: held responses and ingest-ring occupancy across all
	// replicators. Occupancy is delivered-but-unacknowledged records over
	// total live ingest capacity — the utilization the quorum wait queues
	// behind, which is what lets PredictKnee learn the replication phase.
	var replHeld, replOccupancy *metrics.Series
	if len(rt.replicators) > 0 {
		replHeld = reg.NewSeries("repl/held", monitorSeriesCap)
		replOccupancy = reg.NewSeries("repl/ingest-occupancy", monitorSeriesCap)
	}

	lastCPU := rt.cpuBusy
	lastSerial := rt.serialBusy
	lastWire := rt.plat.NetHost.WireBusy()
	rt.plat.Sim.Spawn("lynx/monitor", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			at := time.Duration(p.Now())

			busy := rt.cpuBusy - lastCPU
			lastCPU = rt.cpuBusy
			coreUtil.Add(at, clamp01(float64(busy)/(float64(interval)*float64(rt.plat.Workers))))

			// The serialized stack/dispatch section admits one worker at a
			// time: its occupancy of a single core is the dispatcher
			// utilization, the paper's Lynx-on-BlueField throughput limit.
			sb := rt.serialBusy - lastSerial
			lastSerial = rt.serialBusy
			dispatchUtil.Add(at, clamp01(float64(sb)/float64(interval)))

			// NIC wire: serialization busy time accumulates on both the up
			// and down link, so full duplex saturation is 2x the interval.
			wb := rt.plat.NetHost.WireBusy()
			wireUtil.Add(at, clamp01(float64(wb-lastWire)/(2*float64(interval))))
			lastWire = wb

			st := rt.stats
			backlog.Add(at, float64(int64(st.Received)-int64(st.Responded)-int64(st.Dropped())))

			if replHeld != nil {
				held, outstanding, slots := 0, 0, 0
				for _, r := range rt.replicators {
					held += int(r.held)
					for _, rp := range r.peers {
						if rp.dead {
							continue
						}
						outstanding += rp.outstanding
						slots += rp.q.Slots()
					}
				}
				replHeld.Add(at, float64(held))
				occ := 0.0
				if slots > 0 {
					occ = clamp01(float64(outstanding) / float64(slots))
				}
				replOccupancy.Add(at, occ)
			}

			for _, hp := range probes {
				inflight, txlog := 0, 0
				for i := 0; i < hp.h.group.Len(); i++ {
					q := hp.h.group.Queue(i)
					inflight += q.InFlight()
					txlog += q.TxBacklog()
				}
				hp.inflight.Add(at, float64(inflight))
				hp.txlog.Add(at, float64(txlog))
				if hp.busy != nil {
					d := hp.busy.BusyTime() - hp.lastBusy
					hp.lastBusy += d
					if n := hp.busy.Resident(); n > 0 {
						hp.smUtil.Add(at, clamp01(float64(d)/(float64(interval)*float64(n))))
					} else {
						hp.smUtil.Add(at, 0)
					}
				}
			}
		}
	})
	return m
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// RegisterStats publishes the runtime's counters (and those of its platform:
// netstack drops, RDMA retransmits) into reg as component snapshots.
func (rt *Runtime) RegisterStats(reg *metrics.Registry) {
	reg.AddStats("runtime", func() []metrics.Stat {
		st := rt.stats
		return []metrics.Stat{
			{Name: "received", Value: float64(st.Received)},
			{Name: "responded", Value: float64(st.Responded)},
			{Name: "forwarded", Value: float64(st.Forwarded)},
			{Name: "dropped_overflow", Value: float64(st.DroppedOverflow)},
			{Name: "dropped_stalled", Value: float64(st.DroppedStalled)},
			{Name: "dropped_backend", Value: float64(st.DroppedBackend)},
			{Name: "retries", Value: float64(st.Retries)},
			{Name: "failovers", Value: float64(st.Failovers)},
			{Name: "failbacks", Value: float64(st.Failbacks)},
			{Name: "cpu_busy_us", Value: float64(rt.cpuBusy) / 1e3},
			{Name: "exec_calls", Value: float64(rt.execCalls)},
		}
	})
	reg.AddStats("netstack", func() []metrics.Stat {
		return []metrics.Stat{{Name: "rx_dropped", Value: float64(rt.plat.NetHost.Dropped())}}
	})
	reg.AddStats("rdma", func() []metrics.Stat {
		return []metrics.Stat{
			{Name: "ops", Value: float64(rt.plat.RDMA.Ops())},
			{Name: "retried", Value: float64(rt.plat.RDMA.Retried())},
		}
	})
	if sp := rt.plat.Spans; sp != nil {
		reg.AddStats("spans", func() []metrics.Stat {
			return []metrics.Stat{
				{Name: "begun", Value: float64(sp.Begun())},
				{Name: "closed", Value: float64(sp.Closed())},
				{Name: "evicted", Value: float64(sp.Evicted())},
			}
		})
	}
}
