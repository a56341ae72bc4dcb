// Package lynx is the public facade of the Lynx reproduction: a
// SmartNIC-driven, accelerator-centric network server architecture
// (Tork, Maudlej, Silberstein — ASPLOS 2020), implemented on a
// deterministic discrete-event simulation of the full hardware stack.
//
// A deployment is built in four steps:
//
//  1. create a Cluster (the simulated testbed: switch, machines, clients);
//  2. add machines, SmartNICs and accelerators;
//  3. create a Server (the Lynx runtime) on a SmartNIC or host platform,
//     register accelerators and services, and wire accelerator-side
//     request-processing code to the returned mqueues;
//  4. Start everything and Run the cluster's virtual clock.
//
// See examples/quickstart for the minimal end-to-end program and DESIGN.md
// for the architecture.
package lynx

import (
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/profile"
	"lynx/internal/sim"
	"lynx/internal/snic"
	"lynx/internal/workload"
)

// Re-exported building blocks. The internal packages carry the full API;
// these aliases cover everything a deployment needs.
type (
	// Cluster is a simulated deployment (machines, network, virtual time).
	Cluster struct {
		tb     *snic.Testbed
		params *model.Params
		check  *check.Checker
		prof   *profile.Profile
	}
	// Machine is one physical server.
	Machine = snic.Machine
	// BlueField is the ARM SmartNIC platform.
	BlueField = snic.BlueField
	// Innova is the FPGA SmartNIC (receive path).
	Innova = snic.Innova
	// GPU is a simulated CUDA device.
	GPU = accel.GPU
	// VCA is the Intel Visual Compute Accelerator.
	VCA = accel.VCA
	// TB is a persistent-kernel threadblock context.
	TB = accel.TB
	// Server is a Lynx runtime instance.
	Server = core.Runtime
	// AccelHandle binds a registered accelerator's mqueues.
	AccelHandle = core.AccelHandle
	// Service is a client-facing UDP/TCP service.
	Service = core.Service
	// ClientBinding is a client mqueue bound to a backend.
	ClientBinding = core.ClientBinding
	// Pipeline is a multi-accelerator composition: requests traverse a
	// chain of accelerator stages with the SNIC relaying between them.
	Pipeline = core.Pipeline
	// Queue is the accelerator-side mqueue handle (the lightweight I/O
	// library accelerator code uses).
	Queue = mqueue.AccelQueue
	// Msg is one message received on a Queue.
	Msg = mqueue.Msg
	// QueueConfig shapes mqueue geometry.
	QueueConfig = mqueue.Config
	// Addr is a network address.
	Addr = netstack.Addr
	// Host is a network endpoint (clients, backends).
	Host = netstack.Host
	// Params holds every calibrated hardware constant.
	Params = model.Params
	// Proc is a simulated process handle.
	Proc = sim.Proc
	// LoadConfig parameterizes a load generator.
	LoadConfig = workload.Config
	// LoadResult summarizes a load run.
	LoadResult = workload.Result
	// Stats is a Server's counter snapshot (requests by outcome, drops by
	// cause, retries, failovers).
	Stats = core.Stats
	// FaultConfig declares a deterministic fault-injection plan for a
	// cluster (datagram loss, RDMA/PCIe perturbation, accelerator stalls).
	FaultConfig = fault.Config
	// FaultStall pins one accelerator queue stall window inside a
	// FaultConfig.
	FaultStall = fault.Stall
	// FaultStats counts the faults a cluster's plan actually injected.
	FaultStats = fault.Stats
	// InvariantReport is the outcome of a WithInvariants run: the recorded
	// violations (empty on a healthy run) and how many end-of-run checks
	// were evaluated.
	InvariantReport = check.Report
	// InvariantViolation is one failed runtime invariant.
	InvariantViolation = check.Violation
	// Platform selects where a Server's frontend runs (SmartNIC cores or
	// host cores); obtain one from (*BlueField).Platform or
	// (*Machine).HostPlatform.
	Platform = core.Platform
	// ProfileReport is a WithProfile run's tail-latency attribution report:
	// per-phase wait/service decomposition, ranked bottlenecks, and the
	// flight recorder's slowest/most-recent spans.
	ProfileReport = profile.Report
	// ClusterProfile is the observability plane a WithProfile cluster
	// carries — event ring, span table, flight recorder and metrics registry,
	// the same plane every rack node carries under RackTelemetry; obtain it
	// with (*Cluster).Profile for advanced wiring.
	ClusterProfile = profile.Profile
	// BatchConfig tunes end-to-end hot-path batching (doorbell coalescing,
	// CQ drain budget, dispatcher quantum, coalescing window); install it
	// with WithBatching. The zero value batches nothing: batch size 1
	// everywhere, byte-identical to a cluster built without the option.
	BatchConfig = model.BatchConfig
	// RackConfig parameterizes a multi-node rack build (node count,
	// replication factor, shard universe, fault plan); pass it to BuildRack.
	RackConfig = cluster.Config
	// Rack is a built multi-node deployment: N SNIC-driven KV servers behind
	// per-node ToR switches, sharded by a consistent-hash ShardMap, with
	// each primary's SNIC dispatcher replicating writes to peer accelerators
	// over one-sided RDMA.
	Rack = cluster.Rack
	// RackNode is one rack member (machine, SmartNIC, GPU, runtime, store).
	RackNode = cluster.Node
	// RackTelemetry arms the per-node observability plane of a rack build:
	// every node gets its own ClusterProfile (event ring, span table, flight
	// recorder, sampling metrics registry), rolled up by
	// (*Rack).TelemetrySnapshot and (*Rack).TraceExport.
	RackTelemetry = cluster.Telemetry
	// ShardMap is the consistent-hash membership and key-placement map racks
	// shard by; it is also usable standalone via NewShardMap.
	ShardMap = cluster.ShardMap
	// Replicator drives one service's SNIC-side replication quorum; obtain
	// it from a RackNode (or wire one manually with (*Server).AddReplication).
	Replicator = core.Replicator
	// ReplConfig parameterizes a service's replication layer (write
	// classifier and quorum size).
	ReplConfig = core.ReplConfig
	// ReplStats is a Replicator's counter snapshot.
	ReplStats = core.ReplStats
	// InvariantChecker collects runtime invariant violations; create one
	// with NewInvariantChecker when arming a RackConfig.
	InvariantChecker = check.Checker
)

// Protocols and queue kinds.
const (
	UDP = core.UDP
	TCP = core.TCP

	ServerQueue = mqueue.ServerQueue
	ClientQueue = mqueue.ClientQueue

	K40m = accel.K40m
	K80  = accel.K80Half
)

// DefaultParams returns the calibrated model constants (a copy, free to
// modify before NewCluster).
func DefaultParams() Params { return model.Default() }

// BuildRack constructs a multi-node, sharded, replicated KV rack on its own
// simulated testbed: hardware, shard map, runtimes, stores, replication
// wiring and apply kernels, started and ready for traffic. A 1-node RF=1
// rack is byte-identical to the equivalent single-server deployment.
//
//	rack, err := lynx.BuildRack(lynx.RackConfig{Nodes: 3, Replicas: 3, Seed: 42})
func BuildRack(cfg RackConfig) (*Rack, error) { return cluster.Build(cfg) }

// NewShardMap creates an empty consistent-hash shard map over the given
// shard universe (the default when shards <= 0).
func NewShardMap(shards int) *ShardMap { return cluster.NewShardMap(shards) }

// NewInvariantChecker creates a checker to install in a RackConfig; read its
// findings with Snapshot after the rack is Closed.
func NewInvariantChecker() *InvariantChecker { return check.New() }

// Option configures a Cluster at construction time.
type Option func(*clusterConfig)

type clusterConfig struct {
	seed       uint64
	params     *Params
	faults     FaultConfig
	batch      BatchConfig
	invariants bool
	profile    bool
}

// WithSeed sets the simulation seed. Identical seeds (and options) produce
// byte-identical runs; the default is 1.
func WithSeed(seed uint64) Option {
	return func(c *clusterConfig) { c.seed = seed }
}

// WithParams overrides the calibrated model constants. The struct is used
// as-is (not copied); nil restores the defaults.
func WithParams(p *Params) Option {
	return func(c *clusterConfig) { c.params = p }
}

// WithFaults installs a deterministic fault-injection plan: every machine,
// SmartNIC and accelerator attached to the cluster afterwards is subject to
// it. The plan draws from its own seeded stream, so adding faults never
// perturbs the rest of the simulation, and the same (seed, FaultConfig)
// pair replays the exact same fault sequence.
func WithFaults(fc FaultConfig) Option {
	return func(c *clusterConfig) { c.faults = fc }
}

// WithInvariants arms the cluster's runtime invariant checker: every layer
// (simulator clock, mqueue rings, PCIe fabric, netstack, runtime, workload)
// asserts its conservation and bounds invariants as the simulation runs, and
// end-of-run finishers are evaluated when the cluster is Closed. Read the
// outcome with InvariantReport. The checks are cheap (a pointer test per
// guarded site when enabled, branch-only when not) and never change
// simulation behaviour, so a checked run stays bit-identical to an unchecked
// one.
func WithInvariants() Option {
	return func(c *clusterConfig) { c.invariants = true }
}

// WithProfile arms the cluster's observability plane: every request carries
// a span whose five phases (network, snic, transfer, queueing, execution)
// are each decomposed into waiting and in-service time, a monitor samples
// per-resource utilization, a bounded flight recorder keeps the slowest and
// most recent completed spans, and an event ring records runtime events.
// Read the outcome with ProfileReport after the run; servers must be created
// with (*Cluster).NewServer to be wired into the plane. Combined with
// WithInvariants, span-accounting finishers (phase telescoping,
// wait ≤ phase) join the end-of-run checks.
func WithProfile() Option {
	return func(c *clusterConfig) { c.profile = true }
}

// DefaultBatchConfig returns the tuned batching configuration (8 WQEs per
// doorbell, CQ drain budget 16, dispatcher quantum 8, no coalescing delay) —
// the configuration the -exp batch knee sweep reports as "batched".
func DefaultBatchConfig() BatchConfig { return model.DefaultBatchConfig() }

// WithBatching installs a hot-path batching configuration on the cluster:
// dispatcher contexts dequeue a quantum of ready messages per wakeup, mqueue
// writes post in doorbell groups with checkpointed completion waits, and
// TX-ring sweeps drain in spanning reads. The configuration applies to every
// Server subsequently created on the cluster.
//
// The zero BatchConfig — and the explicit unit configuration
// {Doorbell: 1, CQDrain: 1, Quantum: 1} — leaves the runtime on its exact
// per-message code paths, byte-identical to a cluster built without this
// option. Invalid configurations (zero or negative budgets alongside set
// fields, negative coalescing window) make NewCluster panic; validate ahead
// of time with BatchConfig.Validate when the values come from user input.
func WithBatching(bc BatchConfig) Option {
	return func(c *clusterConfig) { c.batch = bc }
}

// NewCluster creates an empty simulated deployment.
//
//	cluster := lynx.NewCluster(
//		lynx.WithSeed(42),
//		lynx.WithFaults(lynx.FaultConfig{DropRate: 0.01}),
//	)
//
// All blocking receives with deadlines across the API follow one idiom:
// they return (value, ok, err) where ok reports whether a value arrived
// before the timeout and err carries transport-level failures (closed
// connections, SNIC-reported backend errors); err is only meaningful when
// ok is true (except for closed endpoints, which report err with ok
// false).
func NewCluster(opts ...Option) *Cluster {
	cfg := clusterConfig{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.params == nil {
		def := model.Default()
		cfg.params = &def
	}
	if cfg.batch != (BatchConfig{}) {
		if err := cfg.batch.Validate(); err != nil {
			panic("lynx: WithBatching: " + err.Error())
		}
		// Apply onto a copy: WithParams documents the caller's struct is
		// used as-is, so it must not be mutated behind their back.
		pp := *cfg.params
		pp.Batch = cfg.batch
		cfg.params = &pp
	}
	c := &Cluster{
		tb:     snic.NewTestbedWith(cfg.seed, cfg.params, cfg.faults),
		params: cfg.params,
	}
	if cfg.invariants {
		c.check = check.New()
		c.tb.EnableInvariants(c.check)
	}
	if cfg.profile {
		c.prof = profile.New(profile.Options{}, c.check)
	}
	return c
}

// Params returns the cluster's model constants.
func (c *Cluster) Params() *Params { return c.params }

// FaultStats reports how many faults the cluster's plan has injected so
// far (zero value when no WithFaults option was given).
func (c *Cluster) FaultStats() FaultStats { return c.tb.Faults.Stats() }

// NewMachine adds a server machine with the given Xeon core count.
func (c *Cluster) NewMachine(name string, cores int) *Machine {
	return c.tb.NewMachine(name, cores)
}

// AddClient adds a client host (a load-generator machine).
func (c *Cluster) AddClient(name string) *Host { return c.tb.AddClient(name) }

// NewServer creates a Lynx runtime on a platform obtained from
// (*BlueField).Platform or (*Machine).HostPlatform.
func NewServer(plat core.Platform) *Server { return core.NewRuntime(plat) }

// NewServer creates a Lynx runtime wired into the cluster's observability
// plane: with WithProfile armed, the runtime records events into the
// cluster's event ring and stamps request spans into its span table (where
// plat carries none of its own), and a monitor samples its resource
// utilization into the cluster's metrics registry. Without WithProfile it is
// equivalent to the package-level NewServer.
func (c *Cluster) NewServer(plat Platform) *Server {
	srv := core.NewRuntime(c.prof.Platform(plat))
	if c.prof != nil {
		// Start the monitor at the first event-loop instant so it samples
		// the runtime after services and accelerators are registered.
		c.tb.Sim.After(0, func() { c.prof.Monitor(srv) })
	}
	return srv
}

// Profile returns the cluster's observability plane, or nil without
// WithProfile. Its Export renders the Chrome trace timeline, and its
// registry and report feed the metrics and profile artifacts.
func (c *Cluster) Profile() *ClusterProfile { return c.prof }

// ProfileReport builds the tail-latency attribution report from everything
// observed so far: per-phase wait/service decomposition, ranked
// bottlenecks, and the flight recorder's slowest and most recent spans.
// Without WithProfile it returns an empty report.
func (c *Cluster) ProfileReport() *ProfileReport { return c.prof.Report() }

// WriteProfile writes the current ProfileReport to path as deterministic,
// pretty-printed JSON. It is a no-op (returning nil) without WithProfile.
func (c *Cluster) WriteProfile(path string) error { return c.prof.WriteFile(path) }

// ArmProfilePostmortem arranges for the profile report to be dumped to
// path the first time a runtime invariant fires. Requires both WithProfile
// and WithInvariants; otherwise it is a no-op.
func (c *Cluster) ArmProfilePostmortem(path string) {
	c.prof.ArmPostmortem(c.check, path)
}

// Spawn starts a simulated process (for clients, backends, custom logic).
func (c *Cluster) Spawn(name string, fn func(p *Proc)) { c.tb.Sim.Spawn(name, fn) }

// After schedules fn at the given virtual delay.
func (c *Cluster) After(d time.Duration, fn func()) { c.tb.Sim.After(d, fn) }

// Now returns the current virtual time as a duration since boot.
func (c *Cluster) Now() time.Duration { return time.Duration(c.tb.Sim.Now()) }

// Run advances virtual time by d.
func (c *Cluster) Run(d time.Duration) {
	c.tb.Sim.RunUntil(c.tb.Sim.Now().Add(d))
}

// RunUntil advances virtual time in steps until cond holds or d elapses.
func (c *Cluster) RunUntil(d time.Duration, cond func() bool) {
	c.tb.Sim.RunUntil(c.tb.Sim.Now()) // flush current instant
	c.tb.Sim.RunUntilCond(c.tb.Sim.Now().Add(d), time.Millisecond, cond)
}

// Close shuts the cluster down, unwinding all simulated processes. With
// WithInvariants armed, the end-of-run invariant finishers evaluate here.
func (c *Cluster) Close() { c.tb.Sim.Shutdown() }

// InvariantReport returns the invariant checker's findings. After Close it
// includes the end-of-run conservation checks; before Close it covers only
// the violations recorded so far. Without WithInvariants it is empty and
// passing.
func (c *Cluster) InvariantReport() InvariantReport { return c.check.Snapshot() }

// Testbed exposes the underlying testbed for advanced wiring (Innova,
// custom fabrics, direct access to the simulator).
func (c *Cluster) Testbed() *snic.Testbed { return c.tb }

// NewLoad creates a workload generator targeting a service from the given
// client hosts. With WithInvariants armed, the generator's request ledger
// joins the cluster's conservation checks.
func (c *Cluster) NewLoad(cfg LoadConfig, clients ...*Host) *workload.Generator {
	if cfg.Check == nil {
		cfg.Check = c.check
	}
	if cfg.Spans == nil && c.prof != nil {
		cfg.Spans = c.prof.Spans()
	}
	return workload.New(c.tb.Sim, cfg, clients...)
}

// MeasureLoad runs a workload to completion and returns its result.
func (c *Cluster) MeasureLoad(cfg LoadConfig, clients ...*Host) LoadResult {
	g := c.NewLoad(cfg, clients...)
	return workload.RunFor(c.tb.Sim, g)
}
