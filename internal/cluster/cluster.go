// Package cluster builds the Lynx KV service, from one server to a rack (an
// extension beyond the paper): N server machines — each a host with a
// BlueField SNIC and a GPU — cabled into per-node top-of-rack switches that
// uplink to the wire backbone, running a sharded, replicated key-value
// store. The shard map (consistent hashing, shardmap.go) assigns every shard
// a primary and RF-1 replica nodes; each primary's SNIC dispatcher drives the
// quorum protocol (core.AddReplication) over one-sided RDMA into ingest
// mqueues that live in the peer accelerators' memory, where persistent apply
// kernels replay the writes into the peer stores and acknowledge through the
// same rings.
//
// A 1-node rack with Replicas=1 is the single-server Lynx KV service: its
// server cables straight into the backbone and has no replication layer.
// There is no other build of that service.
package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"lynx/internal/accel"
	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/profile"
	"lynx/internal/snic"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

const (
	// ServicePort is the UDP port every node's KV service listens on.
	ServicePort = 7000
	// serveQueues is the per-node serving mqueue count.
	serveQueues = 4
	// slotBytes is the mqueue slot size shared by serving and ingest rings.
	slotBytes = 128
	// ingestSlots sizes each replication ingest ring.
	ingestSlots = 64
	// keys is the number of key-%03d entries every node's store is
	// preloaded with.
	keys = 512
)

// Config parameterizes a rack build.
type Config struct {
	// Nodes is the number of server nodes (default 1).
	Nodes int
	// Replicas is the replication factor: each shard has one primary and
	// Replicas-1 peer replicas (default 1 = no replication; must not exceed
	// Nodes).
	Replicas int
	// Seed is the simulation seed, used verbatim.
	Seed uint64
	// Params are the model constants; nil uses a fresh model.Default copy.
	Params *model.Params
	// Faults is the deployment-wide fault plan (replica kills ride on
	// fault.Stall windows against a peer's accelerator).
	Faults fault.Config
	// Check, when enabled, is installed as the testbed-wide invariant
	// checker before any machine is built.
	Check *check.Checker
	// Telemetry, when non-nil, arms the per-node observability plane: every
	// node gets its own profile.Profile (span table with its event ring,
	// flight recorder, and a metrics registry its monitor samples into),
	// rolled up deterministically by the testbed's TelemetrySnapshot and
	// TraceExport.
	// Nil keeps every node uninstrumented — the zero-cost default.
	Telemetry *Telemetry
}

// Telemetry sizes the per-node observability plane of a rack build: the
// same options a single server's plane takes. The zero value of each field
// selects its default.
type Telemetry = profile.Options

// Node is one rack member and its full serving stack.
type Node struct {
	Index   int
	Name    string
	Machine *snic.Machine
	BF      *snic.BlueField
	GPU     *accel.GPU
	RT      *core.Runtime
	Svc     *core.Service
	Store   *kvstore.Store
	// Repl drives this node's outbound replication; nil when Replicas == 1.
	Repl *core.Replicator
	// Prof is the node's observability plane (the testbed's Plane(Index)),
	// wired into its runtime; nil unless Config.Telemetry was set. Spans is
	// Prof.Spans().
	Prof  *profile.Profile
	Spans *trace.SpanTable

	handle      *core.AccelHandle
	peerSlot    map[int]int // rack node index -> AddPeer bit position
	maskByShard []uint32
}

// Addr returns the node's service address.
func (n *Node) Addr() netstack.Addr { return n.Svc.Addr() }

// Rack is a built multi-node deployment: a view over its testbed, which
// owns the rack's planes, rollups and load path.
type Rack struct {
	TB  *snic.Testbed
	Map *ShardMap
	// Clients are the load-generator hosts (client1, client2).
	Clients []*netstack.Host

	cfg     Config
	nodes   []*Node
	nameIdx map[string]int
}

// Deploy creates the empty deployment cfg describes: a testbed seeded with
// cfg.Seed, on cfg.Params (a fresh model.Default copy when nil), under the
// cfg.Faults plan and checked by cfg.Check. Every deployment starts from
// one: Build fills it with the KV rack, and lynx.NewCluster and the
// experiments' testbeds with their own machines.
func Deploy(cfg Config) *snic.Testbed {
	p := cfg.Params
	if p == nil {
		def := model.Default()
		p = &def
	}
	return snic.NewTestbedWith(cfg.Seed, p, cfg.Faults, cfg.Check)
}

// Build constructs the rack: hardware, shard map, runtimes, stores,
// replication wiring, apply kernels, serving kernels — started and ready for
// traffic on the testbed's virtual clock.
func Build(cfg Config) (*Rack, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Nodes {
		return nil, fmt.Errorf("cluster: replication factor %d exceeds %d nodes", cfg.Replicas, cfg.Nodes)
	}
	tb := Deploy(cfg)
	r := &Rack{TB: tb, Map: NewShardMap(DefaultShards), cfg: cfg, nameIdx: make(map[string]int)}

	// Hardware: one rack switch per node when the deployment spans several
	// machines; the 1-node build cables straight into the backbone, like
	// every single-server testbed.
	for i := 0; i < cfg.Nodes; i++ {
		name := snic.NodeName(i)
		var m *snic.Machine
		if cfg.Nodes == 1 {
			m = tb.NewMachine(name, 6)
		} else {
			tor := tb.AddToR(fmt.Sprintf("tor%d", i+1))
			m = tb.NewMachineAt(name, 6, tor)
		}
		bf := m.AttachBlueField(fmt.Sprintf("bf%d", i+1))
		gpu := m.AddGPU(fmt.Sprintf("gpu%d", i), accel.K40m, false, name)
		if err := r.Map.Join(name); err != nil {
			return nil, err
		}
		r.nameIdx[name] = i
		r.nodes = append(r.nodes, &Node{
			Index: i, Name: name, Machine: m, BF: bf, GPU: gpu,
			peerSlot: make(map[int]int),
		})
	}
	r.Clients = []*netstack.Host{tb.AddClient("client1"), tb.AddClient("client2")}

	// Per-node observability plane: every node carries the plane a single
	// server has, so a rack failover reads as one timeline.
	if cfg.Telemetry != nil {
		for _, n := range r.nodes {
			n.Prof = tb.Arm(n.Index, *cfg.Telemetry)
			n.Spans = n.Prof.Spans()
		}
	}

	// Runtimes, services, preloaded stores.
	for _, n := range r.nodes {
		rt := core.NewRuntime(tb.Platform(n.Index, n.BF.Platform(7)))
		h, err := rt.Register(n.GPU, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: slotBytes}, serveQueues)
		if err != nil {
			return nil, err
		}
		svc, err := rt.AddService(core.UDP, ServicePort, nil, serveQueues, h)
		if err != nil {
			return nil, err
		}
		store := kvstore.NewStore()
		for k := 0; k < keys; k++ {
			store.Set(fmt.Sprintf("key-%03d", k), 0, []byte("value-0123456789"))
		}
		n.RT, n.Svc, n.Store, n.handle = rt, svc, store, h
	}

	// Replication wiring: every primary registers an ingest ring in each
	// peer's accelerator memory; masks are precomputed per shard so the
	// dispatch-path classifier stays allocation-free.
	type ingestWiring struct {
		target *Node
		h      *core.AccelHandle
	}
	var wirings []ingestWiring
	if cfg.Replicas > 1 {
		for i, n := range r.nodes {
			repl, err := n.RT.AddReplication(n.Svc, core.ReplConfig{Classify: r.classifierFor(n)})
			if err != nil {
				return nil, err
			}
			n.Repl = repl
			for j, peer := range r.nodes {
				if j == i {
					continue
				}
				h, err := repl.AddPeer(peer.Name, peer.GPU,
					mqueue.Config{Kind: mqueue.ServerQueue, Slots: ingestSlots, SlotSize: slotBytes})
				if err != nil {
					return nil, err
				}
				n.peerSlot[j] = repl.PeerCount() - 1
				wirings = append(wirings, ingestWiring{target: peer, h: h})
			}
			n.maskByShard = make([]uint32, DefaultShards)
			for s := 0; s < DefaultShards; s++ {
				reps := r.Map.Replicas(s, cfg.Replicas)
				if len(reps) == 0 || reps[0] != n.Name {
					continue // not the primary: serve locally, replicate nothing
				}
				var mask uint32
				for _, member := range reps[1:] {
					mask |= 1 << uint(n.peerSlot[r.nameIdx[member]])
				}
				n.maskByShard[s] = mask
			}
		}
	}

	// Apply kernels: one persistent threadblock per ingest ring, on the
	// target node's GPU, replaying records into the target's store and
	// acknowledging with the record's 8-byte id header (the primary matches
	// acks to writes by id).
	opCost := tb.Params.MemcachedOpXeon
	for _, w := range wirings {
		store := w.target.Store
		if err := w.target.GPU.Serve(tb.Sim, w.h.AccelQueues(), workload.SeqBytes, opCost, func(rec, out []byte) []byte {
			// The store's reply goes into out as scratch: no one reads it.
			out = store.AppendServe(out, rec[workload.SeqBytes:])
			return append(out[:0], rec[:workload.SeqBytes]...)
		}); err != nil {
			return nil, err
		}
	}

	// Serving kernels and runtime start, one node at a time.
	for _, n := range r.nodes {
		store := n.Store
		if err := n.GPU.Serve(tb.Sim, n.handle.AccelQueues(), workload.SeqBytes, opCost, func(req, out []byte) []byte {
			return store.AppendServe(append(out, req[:workload.SeqBytes]...), req[workload.SeqBytes:])
		}); err != nil {
			return nil, err
		}
		if err := n.RT.Start(); err != nil {
			return nil, err
		}
		tb.Monitor(n.Index, n.RT)
	}
	return r, nil
}

var setPrefix = []byte("set ")

// classifierFor builds n's dispatch-path classifier: writes (sets) are
// keyed, sharded, and mapped to the precomputed peer mask of the shard this
// node is primary for. Pure bookkeeping — no allocation, no simulation
// operations — so the dispatch hot path stays substrate-parity clean.
func (r *Rack) classifierFor(n *Node) func([]byte) (uint64, uint32, bool) {
	return func(payload []byte) (uint64, uint32, bool) {
		if len(payload) <= workload.SeqBytes {
			return 0, 0, false
		}
		body := payload[workload.SeqBytes:]
		if !bytes.HasPrefix(body, setPrefix) {
			return 0, 0, false
		}
		key := body[len(setPrefix):]
		if i := bytes.IndexByte(key, ' '); i >= 0 {
			key = key[:i]
		}
		if i := bytes.IndexByte(key, '\r'); i >= 0 {
			key = key[:i]
		}
		id := binary.LittleEndian.Uint64(payload)
		return id, n.maskByShard[r.Map.ShardOfBytes(key)], true
	}
}

// Node returns rack member i.
func (r *Rack) Node(i int) *Node { return r.nodes[i] }

// PeerSlot reports the AddPeer bit position of peer within primary's
// replicator (for ReplicationLag and targeted assertions).
func (r *Rack) PeerSlot(primary, peer int) (int, bool) {
	s, ok := r.nodes[primary].peerSlot[peer]
	return s, ok
}

// PrimaryFor returns the node index owning key's shard.
func (r *Rack) PrimaryFor(key string) int {
	name, _ := r.Map.OwnerOf(key)
	return r.nameIdx[name]
}

// Measure drives a workload from the rack's client hosts to completion on
// the testbed's load path: client-side span stamps default into node 0's
// table, so complete spans (and phase attribution) need the workload to
// target keys that node owns.
func (r *Rack) Measure(wcfg workload.Config) workload.Result {
	return r.TB.Measure(wcfg, r.Clients...)
}

// Close shuts the rack's simulation down, unwinding all processes (and
// evaluating end-of-run invariant finishers when a checker was installed).
func (r *Rack) Close() { r.TB.Sim.Shutdown() }

// OwnedKeys lists the preloaded keys whose primary is node i, in key order.
func (r *Rack) OwnedKeys(i int) []string {
	var out []string
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		if r.PrimaryFor(key) == i {
			out = append(out, key)
		}
	}
	return out
}
