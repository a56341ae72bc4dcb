package profile

import (
	"fmt"

	"lynx/internal/metrics"
)

// KneeEstimate is a predicted saturation point extrapolated from a single
// low-load probe run. The model is the standard open-system argument: a
// work-conserving bottleneck resource observed at mean utilization u while
// absorbing offered load r reaches full utilization near r/u requests per
// second, because its busy fraction grows linearly in offered load. The
// usable knee sits earlier, at the onset of queueing blow-up — beyond
// ~kneeUtilization busy fraction, waiting time diverges and goodput flattens
// or degrades (measured on this simulator: the BlueField echo deployment's
// goodput peaks where dispatcher utilization crosses ~0.84 and declines past
// it) — so the estimate is kneeUtilization·r/u. If the probe's own
// queue-growth slope is already positive the system is at or past the knee
// and the probe rate itself is the estimate.
type KneeEstimate struct {
	// Valid reports whether the inputs supported an estimate; when false,
	// Reason says why and PredictedPerSec is zero.
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
	// Resource is the bottleneck the extrapolation pivots on — the
	// highest-utilization resource of the probe run.
	Resource string `json:"resource,omitempty"`
	// Utilization is that resource's mean utilization at the probe load.
	Utilization float64 `json:"utilization"`
	// QueueSlope is the growth rate (items/sec) of the queue feeding it.
	QueueSlope float64 `json:"queue_slope_per_sec"`
	// ProbePerSec is the offered load of the probe run.
	ProbePerSec float64 `json:"probe_per_sec"`
	// PredictedPerSec is the extrapolated saturation throughput.
	PredictedPerSec float64 `json:"predicted_per_sec"`
}

// String renders the estimate for reports, e.g.
// "knee ≈ 310000 req/s (probe 100000 req/s, dispatcher util 0.32)".
func (k KneeEstimate) String() string {
	if !k.Valid {
		return "knee unpredictable: " + k.Reason
	}
	return fmt.Sprintf("knee ≈ %.0f req/s (probe %.0f req/s, %s util %.2f)",
		k.PredictedPerSec, k.ProbePerSec, k.Resource, k.Utilization)
}

// kneeUtilization is the bottleneck busy fraction the knee is pinned to:
// waiting time in an open system diverges as utilization approaches 1, and
// the goodput curve's bend — the knee operators care about — lands around
// 85% busy for the service-time variability this stack exhibits.
const kneeUtilization = 0.85

// kneeUtilFloor is the minimum mean utilization an estimate may pivot on.
// Below it the measurement is dominated by sampling noise and fixed
// per-request costs, and the r/u extrapolation explodes meaninglessly.
const kneeUtilFloor = 0.02

// kneeSlopeEps separates genuine probe-time backlog growth from least-squares
// jitter (items per second), same scale as slopeTrendEps.
const kneeSlopeEps = 1.0

// PredictKnee extrapolates the saturation knee from one low-load run's
// monitor series. probePerSec is the offered load of that run. The registry
// is scanned with the same resource taxonomy as the bottleneck ranking
// (dispatcher, SNIC core pool, NIC wire, replication ingest occupancy,
// per-accelerator SMs); the estimate pivots on the highest mean utilization
// found.
func PredictKnee(reg *metrics.Registry, probePerSec float64) KneeEstimate {
	if probePerSec <= 0 {
		return KneeEstimate{Reason: "probe rate not positive"}
	}
	var bns []Bottleneck
	if reg != nil {
		bns = buildBottlenecks(nil, reg)
	}
	if len(bns) == 0 {
		return KneeEstimate{Reason: "no utilization series in registry", ProbePerSec: probePerSec}
	}
	// Pivot on the highest mean utilization: it bounds throughput first, so
	// r/u there is the minimum — i.e. the — knee. buildBottlenecks already
	// tie-breaks deterministically; scan keeps the first maximum.
	best := bns[0]
	for _, b := range bns[1:] {
		if b.Utilization > best.Utilization {
			best = b
		}
	}
	k := KneeEstimate{
		Resource:    best.Resource,
		Utilization: best.Utilization,
		QueueSlope:  best.QueueSlope,
		ProbePerSec: probePerSec,
	}
	if best.Utilization < kneeUtilFloor {
		k.Reason = fmt.Sprintf("utilization %.3f below noise floor %.2f", best.Utilization, kneeUtilFloor)
		return k
	}
	k.Valid = true
	if best.QueueSlope > kneeSlopeEps {
		// The backlog is already growing at the probe load: the system is at
		// or past its knee, and extrapolating beyond the probe would claim
		// capacity the queue says is not there.
		k.PredictedPerSec = probePerSec
		return k
	}
	k.PredictedPerSec = kneeUtilization * probePerSec / best.Utilization
	return k
}
