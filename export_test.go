package lynx

// Facade helpers only tests use: the root tests reach them as lynx.X.

import (
	"time"

	"lynx/internal/check"
	"lynx/internal/model"
	"lynx/internal/profile"
)

type (
	// InvariantReport is the outcome of a WithInvariants run: the recorded
	// violations (empty on a healthy run) and how many end-of-run checks
	// were evaluated.
	InvariantReport = check.Report
	// ProfileReport is a WithProfile run's tail-latency attribution report:
	// per-phase wait/service decomposition, ranked bottlenecks, and the
	// flight recorder's slowest/most-recent spans.
	ProfileReport = profile.Report
)

// DefaultParams returns the calibrated model constants (a copy, free to
// modify before NewCluster).
func DefaultParams() Params { return model.Default() }

// DefaultBatchConfig returns the tuned batching configuration (8 WQEs per
// doorbell, CQ drain budget 16, dispatcher quantum 8) —
// the configuration the -exp batch knee sweep reports as "batched".
func DefaultBatchConfig() BatchConfig { return model.DefaultBatchConfig() }

// ProfileReport builds the tail-latency attribution report from everything
// observed so far: per-phase wait/service decomposition, ranked
// bottlenecks, and the flight recorder's slowest and most recent spans.
// Without WithProfile it returns an empty report.
func (c *Cluster) ProfileReport() *ProfileReport { return c.Profile().Report() }

// WriteProfile writes the current ProfileReport to path as deterministic,
// pretty-printed JSON. It is a no-op (returning nil) without WithProfile.
func (c *Cluster) WriteProfile(path string) error { return c.Profile().WriteFile(path) }

// ArmProfilePostmortem arranges for the profile report to be dumped to
// path the first time a runtime invariant fires. Requires both WithProfile
// and WithInvariants; otherwise it is a no-op.
func (c *Cluster) ArmProfilePostmortem(path string) {
	c.Profile().ArmPostmortem(c.tb.Check, path)
}

// After schedules fn at the given virtual delay.
func (c *Cluster) After(d time.Duration, fn func()) { c.tb.Sim.After(d, fn) }

// Now returns the current virtual time as a duration since boot.
func (c *Cluster) Now() time.Duration { return time.Duration(c.tb.Sim.Now()) }

// Run advances virtual time by d.
func (c *Cluster) Run(d time.Duration) {
	c.tb.Sim.RunUntil(c.tb.Sim.Now().Add(d))
}

// InvariantReport returns the invariant checker's findings. After Close it
// includes the end-of-run conservation checks; before Close it covers only
// the violations recorded so far. Without WithInvariants it is empty and
// passing.
func (c *Cluster) InvariantReport() InvariantReport { return c.tb.Check.Snapshot() }
