// Package fabric models a PCIe interconnect: devices and switches joined by
// links with latency and bandwidth, and the routes between them. Peer-to-peer
// DMA between two devices (the mechanism Lynx uses for SNIC <-> accelerator
// transfers without host CPU involvement, paper §4.1) is timed by TransferTime.
//
// Transits are uncontended: a transfer costs per-hop latency plus per-hop
// serialization of its payload, and links hold no occupancy, so concurrent
// DMAs never queue behind one another (DESIGN.md §4.2 bounds the error).
package fabric

import (
	"fmt"
	"time"

	"lynx/internal/memdev"
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
	nodes map[string]Node
	// paths caches routes by source, then destination device. Keying by
	// pointer keeps the lookup, a few per RDMA operation, off string hashing.
	paths map[*Device]map[*Device][]*Link
}

// New creates an empty fabric.
func New() *Fabric {
	return &Fabric{
		nodes: make(map[string]Node),
		paths: make(map[*Device]map[*Device][]*Link),
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

// AddToR registers a top-of-rack switch and connects it to the backbone
// switch with a link of the given one-way latency and bandwidth
// (bits/second). Machines cabled into the returned switch reach rack peers in
// one switch hop and the rest of the world through the uplink.
func (f *Fabric) AddToR(name string, backbone *Switch, latency time.Duration, bandwidth float64) *Switch {
	sw := f.AddSwitch(name)
	f.Connect(sw, backbone, latency, bandwidth)
	return sw
}

func (f *Fabric) register(name string, n Node) {
	if _, dup := f.nodes[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	f.nodes[name] = n
}

// Connect joins two nodes with a link of the given one-way latency and
// bandwidth (bits/second).
func (f *Fabric) Connect(a, b Node, latency time.Duration, bandwidth float64) {
	l := &Link{a: a, b: b, latency: latency, bandwidth: bandwidth}
	a.addEdge(l)
	b.addEdge(l)
	clear(f.paths) // invalidate route cache
}

// route finds the link path between two devices with BFS, cached.
func (f *Fabric) route(from, to *Device) []*Link {
	byDst, ok := f.paths[from]
	if !ok {
		byDst = make(map[*Device][]*Link)
		f.paths[from] = byDst
	}
	if p, ok := byDst[to]; ok {
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
	byDst[to] = path
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

// Transfers reports the number of explicit peer DMA operations the fabric
// performed. Every DMA in the simulation is an RDMA transit timed by
// TransferTime, which is not such an operation, so this is always 0.
func (f *Fabric) Transfers() uint64 { return 0 }
