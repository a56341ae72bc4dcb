// Package fabric models a PCIe interconnect: devices and switches joined by
// links with latency and bandwidth, supporting peer-to-peer DMA between any
// two devices (the mechanism Lynx uses for SNIC <-> accelerator transfers
// without host CPU involvement, §4.1).
//
// Transfers acquire each link on their path for the serialization time of
// the payload, so concurrent DMAs contend realistically; per-hop latency is
// added once per link.
package fabric

import (
	"fmt"
	"time"

	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/memdev"
	"lynx/internal/sim"
)

// Node is a vertex of the PCIe topology: either a Device or a Switch.
type Node interface {
	nodeName() string
	edges() []*Link
	addEdge(l *Link)
}

type nodeBase struct {
	name  string
	links []*Link
}

func (n *nodeBase) nodeName() string { return n.name }
func (n *nodeBase) edges() []*Link   { return n.links }
func (n *nodeBase) addEdge(l *Link)  { n.links = append(n.links, l) }

// Device is an endpoint on the fabric (NIC, GPU, CPU root complex, VCA...).
// A device optionally owns memory reachable by peer DMA.
type Device struct {
	nodeBase
	Mem *memdev.Memory
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Switch is a PCIe switch (e.g. the one inside BlueField or the VCA).
type Switch struct {
	nodeBase
}

// Link is a bidirectional fabric edge.
type Link struct {
	a, b      Node
	latency   time.Duration
	bandwidth float64 // bits per second
	busy      *sim.Resource

	bytesMoved uint64
	busyTime   time.Duration
}

// other returns the far endpoint of l as seen from n.
func (l *Link) other(n Node) Node {
	if l.a == n {
		return l.b
	}
	return l.a
}

// Fabric is a PCIe topology.
type Fabric struct {
	sim    *sim.Sim
	nodes  map[string]Node
	paths  map[[2]string][]*Link // route cache
	faults *fault.Plan
	links  []*Link

	transfers uint64

	// check and hopBytes implement double-entry byte conservation: every
	// completed hop adds its size both to the link's bytesMoved and to the
	// fabric-global hopBytes, from the same loop but different ledgers, so a
	// refactor that double-counts or bypasses per-link accounting trips the
	// end-of-run finisher. Only maintained while a checker is installed.
	check    *check.Checker
	hopBytes uint64
}

// SetFaults installs a fault plan consulted per transfer. A nil plan (the
// default) injects nothing.
func (f *Fabric) SetFaults(pl *fault.Plan) { f.faults = pl }

// New creates an empty fabric.
func New(s *sim.Sim) *Fabric {
	return &Fabric{
		sim:   s,
		nodes: make(map[string]Node),
		paths: make(map[[2]string][]*Link),
	}
}

// AddDevice registers a new endpoint. mem may be nil for devices without
// DMA-visible memory.
func (f *Fabric) AddDevice(name string, mem *memdev.Memory) *Device {
	d := &Device{nodeBase: nodeBase{name: name}, Mem: mem}
	f.register(name, d)
	return d
}

// AddSwitch registers a new switch.
func (f *Fabric) AddSwitch(name string) *Switch {
	sw := &Switch{nodeBase: nodeBase{name: name}}
	f.register(name, sw)
	return sw
}

// ToR is a top-of-rack switch: an ordinary fabric switch plus its recorded
// uplink into the backbone, so rack-local hops and uplink hops are separate
// links with separate utilization accounting. Machines cabled into a ToR
// reach rack peers in one switch hop and the rest of the world through the
// uplink.
type ToR struct {
	sw     *Switch
	uplink *Link
}

// AddToR registers a rack switch and connects it to the backbone switch with
// a link of the given one-way latency and bandwidth (bits/second).
func (f *Fabric) AddToR(name string, backbone *Switch, latency time.Duration, bandwidth float64) *ToR {
	sw := f.AddSwitch(name)
	return &ToR{sw: sw, uplink: f.Connect(sw, backbone, latency, bandwidth)}
}

// Switch returns the rack switch node, for cabling machines into the rack.
func (t *ToR) Switch() *Switch { return t.sw }

// Uplink returns the ToR's backbone link (for utilization probes).
func (t *ToR) Uplink() *Link { return t.uplink }

func (f *Fabric) register(name string, n Node) {
	if _, dup := f.nodes[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	f.nodes[name] = n
}

// Connect joins two nodes with a link of the given one-way latency and
// bandwidth (bits/second).
func (f *Fabric) Connect(a, b Node, latency time.Duration, bandwidth float64) *Link {
	l := &Link{a: a, b: b, latency: latency, bandwidth: bandwidth, busy: sim.NewResource(f.sim, 1)}
	a.addEdge(l)
	b.addEdge(l)
	f.links = append(f.links, l)
	f.paths = make(map[[2]string][]*Link) // invalidate route cache
	return l
}

// route finds the link path between two nodes with BFS, cached.
func (f *Fabric) route(from, to Node) []*Link {
	key := [2]string{from.nodeName(), to.nodeName()}
	if p, ok := f.paths[key]; ok {
		return p
	}
	type hop struct {
		n    Node
		via  *Link
		prev *hop
	}
	visited := map[Node]bool{from: true}
	queue := []*hop{{n: from}}
	var found *hop
	for len(queue) > 0 && found == nil {
		h := queue[0]
		queue = queue[1:]
		for _, l := range h.n.edges() {
			nxt := l.other(h.n)
			if visited[nxt] {
				continue
			}
			visited[nxt] = true
			nh := &hop{n: nxt, via: l, prev: h}
			if nxt == to {
				found = nh
				break
			}
			queue = append(queue, nh)
		}
	}
	if found == nil {
		panic(fmt.Sprintf("fabric: no path from %s to %s", from.nodeName(), to.nodeName()))
	}
	var path []*Link
	for h := found; h.via != nil; h = h.prev {
		path = append([]*Link{h.via}, path...)
	}
	f.paths[key] = path
	return path
}

// Distance reports the hop count between two devices (for tests/topology
// validation).
func (f *Fabric) Distance(from, to *Device) int { return len(f.route(from, to)) }

// TransferTime estimates the uncontended time to move size bytes from one
// device to another.
func (f *Fabric) TransferTime(from, to *Device, size int) time.Duration {
	var total time.Duration
	for _, l := range f.route(from, to) {
		total += l.latency
		if l.bandwidth > 0 {
			total += time.Duration(float64(size*8) / l.bandwidth * 1e9)
		}
	}
	return total
}

// transfer blocks p for the transit of size bytes along the path, holding
// each link for its serialization time (cut-through: latency overlaps with
// downstream hops, modelled as per-hop latency plus per-hop serialization).
func (f *Fabric) transfer(p *sim.Proc, from, to *Device, size int) {
	f.transfers++
	if spike := f.faults.PCIePerturb(); spike > 0 {
		p.Sleep(spike)
	}
	for _, l := range f.route(from, to) {
		l.busy.Acquire(p)
		ser := time.Duration(0)
		if l.bandwidth > 0 {
			ser = time.Duration(float64(size*8) / l.bandwidth * 1e9)
		}
		p.Sleep(l.latency + ser)
		l.bytesMoved += uint64(size)
		l.busyTime += l.latency + ser
		if f.check.Enabled() {
			f.hopBytes += uint64(size)
		}
		l.busy.Release()
	}
}

// WriteDMA performs a peer-to-peer DMA write of data into region at off,
// on behalf of device from, blocking p for the transit time. The write
// lands with the region's ordering semantics (relaxed regions may delay
// visibility; see memdev).
func (f *Fabric) WriteDMA(p *sim.Proc, from, to *Device, region *memdev.Region, off int, data []byte) {
	f.transfer(p, from, to, len(data))
	region.WriteDMA(off, data)
}

// ReadDMA performs a peer-to-peer DMA read of n bytes from region at off,
// blocking p for the round trip (request header out, data back). DMA reads
// are ordered and act as a flush barrier on the target region.
func (f *Fabric) ReadDMA(p *sim.Proc, from, to *Device, region *memdev.Region, off, n int) []byte {
	f.transfer(p, from, to, 32) // read request TLP
	f.transfer(p, to, from, n)  // completion with data
	out := make([]byte, n)
	region.ReadDMA(off, out)
	return out
}

// FlushBarrier performs a zero-byte ordered read round trip that forces all
// posted writes to the region to become visible (the §5.1 workaround).
func (f *Fabric) FlushBarrier(p *sim.Proc, from, to *Device, region *memdev.Region) {
	f.transfer(p, from, to, 32)
	f.transfer(p, to, from, 8)
	region.Flush()
}

// Transfers reports the number of DMA operations performed.
func (f *Fabric) Transfers() uint64 { return f.transfers }

// RegisterInvariants installs ck and registers the fabric's end-of-run
// checks: per-link byte conservation against the fabric-global hop ledger
// (from ck's installation onward) and link occupancy never exceeding
// elapsed virtual time.
func (f *Fabric) RegisterInvariants(ck *check.Checker) {
	if !ck.Enabled() {
		return
	}
	f.check = ck
	var baseline uint64
	for _, l := range f.links {
		baseline += l.bytesMoved
	}
	ck.AddFinisher("fabric.byte-conservation", func(fail func(string, ...any)) {
		var moved uint64
		for _, l := range f.links {
			moved += l.bytesMoved
		}
		if moved-baseline != f.hopBytes {
			fail("links accumulated %d bytes, hop ledger %d", moved-baseline, f.hopBytes)
		}
	})
	ck.AddFinisher("fabric.link-occupancy", func(fail func(string, ...any)) {
		elapsed := time.Duration(f.sim.Now())
		for i, l := range f.links {
			if l.busyTime > elapsed {
				fail("link %d (%s<->%s) busy %v beyond elapsed %v",
					i, l.a.nodeName(), l.b.nodeName(), l.busyTime, elapsed)
			}
		}
	})
}

// LinkBytes reports bytes moved across the link (both directions).
func (l *Link) LinkBytes() uint64 { return l.bytesMoved }

// BusyTime reports accumulated link occupancy (hold time of the link
// resource across all transfers), for utilization probes.
func (l *Link) BusyTime() time.Duration { return l.busyTime }

// PathLinks returns the links on the route between two devices, in hop
// order. The slice is the fabric's route cache — treat it as read-only.
func (f *Fabric) PathLinks(from, to *Device) []*Link { return f.route(from, to) }
