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
//  4. Start everything and run the cluster's virtual clock (RunUntil).
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
	// Cluster is a simulated deployment (machines, network, virtual time):
	// a view over its testbed, which owns its checker, observability plane
	// and load path.
	Cluster struct {
		tb *snic.Testbed
	}
	// Machine is one physical server.
	Machine = snic.Machine
	// GPU is a simulated CUDA device.
	GPU = accel.GPU
	// TB is a persistent-kernel threadblock context.
	TB = accel.TB
	// Server is a Lynx runtime instance.
	Server = core.Runtime
	// AccelHandle binds a registered accelerator's mqueues.
	AccelHandle = core.AccelHandle
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
	// FaultConfig declares a deterministic fault-injection plan for a
	// cluster (datagram loss, duplication and delay, RDMA completion errors
	// and latency spikes, accelerator stalls).
	FaultConfig = fault.Config
	// FaultStall pins one accelerator queue stall window inside a
	// FaultConfig.
	FaultStall = fault.Stall
	// FaultStats counts the faults a cluster's plan actually injected.
	FaultStats = fault.Stats
	// Platform selects where a Server's frontend runs (SmartNIC cores or
	// host cores); obtain one from a SmartNIC's Platform method or
	// (*Machine).HostPlatform.
	Platform = core.Platform
	// ClusterProfile is the observability plane a WithProfile cluster
	// carries — event ring, span table, flight recorder and metrics registry,
	// the same plane every rack node carries under RackTelemetry; obtain it
	// with (*Cluster).Profile for advanced wiring.
	ClusterProfile = profile.Profile
	// BatchConfig tunes end-to-end hot-path batching (doorbell coalescing,
	// CQ drain budget, dispatcher quantum); install it
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
	// RackTelemetry arms the per-node observability plane of a rack build:
	// every node gets its own ClusterProfile (event ring, span table, flight
	// recorder, sampling metrics registry), rolled up by the rack testbed's
	// TelemetrySnapshot and TraceExport.
	RackTelemetry = cluster.Telemetry
	// InvariantChecker collects runtime invariant violations; create one
	// with NewInvariantChecker when arming a RackConfig.
	InvariantChecker = check.Checker
)

// Protocols and queue kinds.
const (
	UDP = core.UDP
	TCP = core.TCP

	ServerQueue = mqueue.ServerQueue

	K40m = accel.K40m
	K80  = accel.K80Half
)

// BuildRack constructs a multi-node, sharded, replicated KV rack on its own
// simulated testbed: hardware, shard map, runtimes, stores, replication
// wiring and apply kernels, started and ready for traffic. A 1-node RF=1
// rack is one Lynx KV server: no ToR switch and no replication layer.
//
//	rack, err := lynx.BuildRack(lynx.RackConfig{Nodes: 3, Replicas: 3, Seed: 42})
func BuildRack(cfg RackConfig) (*Rack, error) { return cluster.Build(cfg) }

// NewInvariantChecker creates a checker to install in a RackConfig; read its
// findings with Snapshot after the rack is Closed.
func NewInvariantChecker() *InvariantChecker { return check.New() }

// Option configures a Cluster at construction time.
type Option func(*clusterConfig)

type clusterConfig struct {
	seed       uint64
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
// outcome with Testbed().Check.Snapshot(). The checks are cheap (a pointer test per
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
// Read the outcome with Profile().Report() after the run; servers must be created
// with (*Cluster).NewServer to be wired into the plane. Combined with
// WithInvariants, span-accounting finishers (phase telescoping,
// wait ≤ phase) join the end-of-run checks.
func WithProfile() Option {
	return func(c *clusterConfig) { c.profile = true }
}

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
// fields) make NewCluster panic; validate ahead
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
	if err := cfg.batch.Validate(); err != nil {
		panic("lynx: WithBatching: " + err.Error())
	}
	def := model.Default()
	rc := cluster.Config{Seed: cfg.seed, Params: def.WithBatch(cfg.batch), Faults: cfg.faults}
	if cfg.invariants {
		rc.Check = NewInvariantChecker()
	}
	c := &Cluster{tb: cluster.Deploy(rc)}
	if cfg.profile {
		c.tb.Arm(0, profile.Options{})
	}
	return c
}

// Params returns the cluster's model constants.
func (c *Cluster) Params() *Params { return c.tb.Params }

// FaultStats reports how many faults the cluster's plan has injected so
// far (zero value when no WithFaults option was given).
func (c *Cluster) FaultStats() FaultStats { return c.tb.Faults.Stats() }

// NewMachine adds a server machine with the given Xeon core count.
func (c *Cluster) NewMachine(name string, cores int) *Machine {
	return c.tb.NewMachine(name, cores)
}

// AddClient adds a client host (a load-generator machine).
func (c *Cluster) AddClient(name string) *Host { return c.tb.AddClient(name) }

// NewServer creates a Lynx runtime on a platform obtained from a
// SmartNIC's Platform method or (*Machine).HostPlatform. With WithProfile
// armed, the runtime records events into the cluster's event ring and stamps
// request spans into its span table (where plat carries none of its own),
// and a monitor samples its resource utilization into the cluster's metrics
// registry.
func (c *Cluster) NewServer(plat Platform) *Server {
	srv := core.NewRuntime(c.tb.Platform(0, plat))
	if c.Profile() != nil {
		// Start the monitor at the first event-loop instant so it samples
		// the runtime after services and accelerators are registered.
		c.tb.Sim.After(0, func() { c.tb.Monitor(0, srv) })
	}
	return srv
}

// Profile returns the cluster's observability plane, or nil without
// WithProfile. Its Export renders the Chrome trace timeline, and its
// registry and report feed the metrics and profile artifacts.
func (c *Cluster) Profile() *ClusterProfile { return c.tb.Plane(0) }

// Spawn starts a simulated process (for clients, backends, custom logic).
func (c *Cluster) Spawn(name string, fn func(p *Proc)) { c.tb.Sim.Spawn(name, fn) }

// RunUntil advances virtual time in steps until cond holds or d elapses.
func (c *Cluster) RunUntil(d time.Duration, cond func() bool) {
	c.tb.Sim.RunUntil(c.tb.Sim.Now()) // flush current instant
	c.tb.Sim.RunUntilCond(c.tb.Sim.Now().Add(d), time.Millisecond, cond)
}

// Close shuts the cluster down, unwinding all simulated processes. With
// WithInvariants armed, the end-of-run invariant finishers evaluate here.
func (c *Cluster) Close() { c.tb.Sim.Shutdown() }

// Testbed exposes the underlying testbed for advanced wiring (Innova,
// custom fabrics, direct access to the simulator).
func (c *Cluster) Testbed() *snic.Testbed { return c.tb }

// NewLoad creates a workload generator targeting a service from the given
// client hosts, on the testbed's load path: with WithInvariants armed, the
// generator's request ledger joins the cluster's conservation checks, and
// with WithProfile its spans land in the cluster's plane.
func (c *Cluster) NewLoad(cfg LoadConfig, clients ...*Host) *workload.Generator {
	return c.tb.Load(cfg, clients...)
}

// MeasureLoad runs a workload to completion and returns its result.
func (c *Cluster) MeasureLoad(cfg LoadConfig, clients ...*Host) LoadResult {
	return c.tb.Measure(cfg, clients...)
}
