package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/kvstore"
	"lynx/internal/apps/lenet"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fabric"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/snic"
	"lynx/internal/trace"
)

const (
	servicePort = 7000
	seqBytes    = 8
	// spanCap bounds each span table of a traced run; it must exceed the
	// requests issued during the longest request's lifetime.
	spanCap = 1 << 15
)

// workload is one benchmark deployment and the traffic its clients send.
type workload struct {
	name string
	// window is the measured virtual window of a reference run
	// (--seconds 10), sized to take about ten seconds of host time on two
	// cores. The warm-up before it is a tenth of it.
	window time.Duration
	build  func(o buildOpts) (*bed, error)
}

// workloads lists the benchmark's workloads in the order runs report them.
var workloads = []workload{
	{name: "echo-udp", window: 1500 * time.Millisecond, build: buildEchoUDP},
	{name: "echo-tcp", window: 7 * time.Second, build: buildEchoTCP},
	{name: "lenet", window: 4 * time.Second, build: buildLenet},
	{name: "kv-rack", window: 500 * time.Millisecond, build: buildKVRack},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// buildOpts carries what one build of a deployment needs beyond its shape.
type buildOpts struct {
	seed uint64
	// traced arms span tables and times the harness's calls into the LeNet
	// layer; the simulation itself must not change.
	traced bool
	refs   *lenetRefs
	// tamper, when non-nil, rewrites every response an echo kernel
	// publishes, so tests can check that wrong bytes are caught.
	tamper func([]byte)
}

// bed is one built deployment with the harness clients that drive it, plus
// handles on every public counter the per-layer metrics read.
type bed struct {
	sim     *sim.Sim
	fab     *fabric.Fabric
	engines []*rdma.Engine
	rts     []*core.Runtime
	repls   []*core.Replicator
	gpus    []*accel.GPU
	spans   []*trace.SpanTable // one per serving node, traced runs only
	clients []*client

	lenet lenetStats
}

// lenetStats is the harness-side accounting of the LeNet layer.
type lenetStats struct {
	classifyTime time.Duration // summed around lenet.Classify (traced runs)
	classifies   uint64
	seen         []bool // per grid image: requested before
	requests     uint64 // measured requests
	repeats      uint64 // measured requests whose image was requested before
}

// server is the single-machine testbed of the paper's §6: a host with a
// BlueField SmartNIC and one K40m GPU, and two client machines.
type server struct {
	tb      *snic.Testbed
	bf      *snic.BlueField
	gpu     *accel.GPU
	clients []*netstack.Host
	spans   *trace.SpanTable
}

func newServer(o buildOpts) *server {
	p := model.Default()
	tb := snic.NewTestbed(o.seed, &p)
	m := tb.NewMachine("server1", 6)
	s := &server{
		tb:      tb,
		bf:      m.AttachBlueField("bf1"),
		gpu:     m.AddGPU("gpu0", accel.K40m, false, "server1"),
		clients: []*netstack.Host{tb.AddClient("client1"), tb.AddClient("client2")},
	}
	if o.traced {
		s.spans = trace.NewSpanTable(spanCap)
	}
	return s
}

// runtime creates the Lynx runtime on the BlueField's seven worker cores.
func (s *server) runtime() *core.Runtime {
	plat := s.bf.Platform(7)
	plat.Spans = s.spans
	return core.NewRuntime(plat)
}

func (s *server) bed(rt *core.Runtime) *bed {
	b := &bed{
		sim:     s.tb.Sim,
		fab:     s.tb.Fab,
		engines: []*rdma.Engine{s.bf.RDMA, s.bf.Host.RDMA},
		rts:     []*core.Runtime{rt},
		gpus:    []*accel.GPU{s.gpu},
	}
	if s.spans != nil {
		b.spans = []*trace.SpanTable{s.spans}
	}
	return b
}

// addClients attaches n closed-loop clients spread over the client machines.
func (b *bed) addClients(s *server, o buildOpts, n int, target netstack.Addr, tcp bool, gen func() traffic) {
	for i := 0; i < n; i++ {
		b.clients = append(b.clients, newClient(len(b.clients), o.seed, s.clients[i%len(s.clients)],
			target, tcp, s.spans, gen()))
	}
}

// echoKernel launches one persistent threadblock per queue, each charging
// compute of GPU time per request and echoing the request back.
func echoKernel(s *server, qs []*mqueue.AccelQueue, compute time.Duration, tamper func([]byte)) error {
	return s.gpu.LaunchPersistent(s.tb.Sim, len(qs), func(t *accel.TB) {
		aq := qs[t.Index()]
		for {
			m := aq.Recv(t.Proc())
			t.Compute(compute)
			if tamper != nil {
				tamper(m.Payload)
			}
			if aq.Send(t.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	})
}

// buildEchoUDP is the Fig. 6 operating point: Lynx on BlueField, 240 server
// mqueues on one GPU, 20 µs of GPU work per request, 64 B UDP requests from
// 480 closed-loop clients.
func buildEchoUDP(o buildOpts) (*bed, error) {
	const queues, clients, payload = 240, 480, 64
	s := newServer(o)
	rt := s.runtime()
	h, err := rt.Register(s.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, queues)
	if err != nil {
		return nil, err
	}
	svc, err := rt.AddService(core.UDP, servicePort, nil, queues, h)
	if err != nil {
		return nil, err
	}
	if err := echoKernel(s, h.AccelQueues(), 20*time.Microsecond, o.tamper); err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	b := s.bed(rt)
	b.addClients(s, o, clients, svc.Addr(), false, func() traffic { return newEchoTraffic(payload) })
	return b, nil
}

// buildEchoTCP is the Fig. 8c TCP point: Lynx on BlueField serving TCP over
// 15 one-mqueue accelerator contexts, each running a delay kernel as long as
// one K80 LeNet inference, driven by 45 connections with 64 B requests.
func buildEchoTCP(o buildOpts) (*bed, error) {
	const contexts, clients, payload = 15, 45, 64
	s := newServer(o)
	rt := s.runtime()
	var handles []*core.AccelHandle
	var qs []*mqueue.AccelQueue
	for i := 0; i < contexts; i++ {
		h, err := rt.Register(s.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 96}, 1)
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
		qs = append(qs, h.AccelQueues()...)
	}
	svc, err := rt.AddService(core.TCP, servicePort, nil, 1, handles...)
	if err != nil {
		return nil, err
	}
	if err := echoKernel(s, qs, s.tb.Params.LeNetServiceK80, o.tamper); err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	b := s.bed(rt)
	b.addClients(s, o, clients, svc.Addr(), true, func() traffic { return newEchoTraffic(payload) })
	return b, nil
}

// buildLenet is the Fig. 8a point: Lynx on BlueField in front of one GPU
// mqueue whose persistent kernel runs a real LeNet-5 forward pass per request
// (GPU time from the calibrated model), driven by 3 UDP clients.
func buildLenet(o buildOpts) (*bed, error) {
	const clients = 3
	payload := seqBytes + lenet.InputBytes
	s := newServer(o)
	rt := s.runtime()
	h, err := rt.Register(s.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: payload + 16}, 1)
	if err != nil {
		return nil, err
	}
	svc, err := rt.AddService(core.UDP, servicePort, nil, 1, h)
	if err != nil {
		return nil, err
	}
	b := s.bed(rt)
	b.lenet.seen = make([]bool, len(o.refs.images))
	net := lenet.New(lenetSeed)
	service := s.tb.Params.LeNetServiceK40
	aq := h.AccelQueues()[0]
	err = s.gpu.LaunchPersistent(s.tb.Sim, 1, func(t *accel.TB) {
		resp := make([]byte, seqBytes+1) // Send copies it into the TX ring
		for {
			m := aq.Recv(t.Proc())
			copy(resp, m.Payload[:seqBytes])
			resp[seqBytes] = b.classify(net, m.Payload[seqBytes:], o.traced)
			t.SpawnChild(service)
			if aq.Send(t.Proc(), uint16(m.Slot), resp) != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	b.addClients(s, o, clients, svc.Addr(), false, func() traffic {
		return &lenetTraffic{refs: o.refs, stats: &b.lenet, buf: make([]byte, payload)}
	})
	return b, nil
}

// classify runs the forward pass for one request, timing it in traced runs.
// A malformed image answers 0xff, which no reference class equals.
func (b *bed) classify(net *lenet.Network, img []byte, timed bool) byte {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	cls, err := net.Classify(img)
	if timed {
		b.lenet.classifyTime += time.Since(t0)
		b.lenet.classifies++
	}
	if err != nil {
		return 0xff
	}
	return byte(cls)
}

// buildKVRack is the replicated write path: a 3-node RF=3 rack running the
// sharded key-value store, 8 UDP clients per node on that node's own keys,
// a quarter of them SETs (quorum-replicated over one-sided RDMA) and the
// rest GETs served locally.
func buildKVRack(o buildOpts) (*bed, error) {
	const nodes, perNode = 3, 8
	cfg := cluster.Config{Nodes: nodes, Replicas: nodes, Seed: o.seed}
	if o.traced {
		// Only the span tables are read. A monitor period longer than any run
		// keeps the telemetry plane's sampler from adding simulated events.
		cfg.Telemetry = &cluster.Telemetry{SpanCap: spanCap, Interval: time.Hour}
	}
	rack, err := cluster.Build(cfg)
	if err != nil {
		return nil, err
	}
	b := &bed{sim: rack.TB.Sim, fab: rack.TB.Fab}
	for i := 0; i < nodes; i++ {
		n := rack.Node(i)
		b.engines = append(b.engines, n.BF.RDMA, n.Machine.RDMA)
		b.rts = append(b.rts, n.RT)
		b.repls = append(b.repls, n.Repl)
		b.gpus = append(b.gpus, n.GPU)
		if n.Spans != nil {
			b.spans = append(b.spans, n.Spans)
		}
		// Each client is the only writer of its share of the node's keys,
		// so a GET must return exactly the value of the key's last SET.
		keys := rack.OwnedKeys(i)
		for c := 0; c < perNode; c++ {
			var mine []string
			for k := c; k < len(keys); k += perNode {
				mine = append(mine, keys[k])
			}
			host := rack.Clients[len(b.clients)%len(rack.Clients)]
			b.clients = append(b.clients, newClient(len(b.clients), o.seed, host, n.Addr(), false,
				n.Spans, newKVTraffic(mine)))
		}
	}
	return b, nil
}

// traffic builds one client's requests and validates the responses. A
// client has one request in flight at a time.
type traffic interface {
	// next writes the next request, sequence header first, and returns it.
	// measured reports whether the request falls in the measured window.
	next(rng *rand.Rand, seq uint64, measured bool) []byte
	// valid reports whether resp correctly answers the last request; a nil
	// resp means it got no answer.
	valid(resp []byte) bool
}

// echoTraffic sends random bytes and expects them back unchanged.
type echoTraffic struct{ buf []byte }

func newEchoTraffic(payload int) *echoTraffic { return &echoTraffic{buf: make([]byte, payload)} }

func (e *echoTraffic) next(rng *rand.Rand, seq uint64, _ bool) []byte {
	binary.LittleEndian.PutUint64(e.buf, seq)
	for i := seqBytes; i < len(e.buf); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Uint64())
		copy(e.buf[i:], w[:])
	}
	return e.buf
}

func (e *echoTraffic) valid(resp []byte) bool { return bytes.Equal(resp, e.buf) }

// lenetSeed seeds both the served network and the harness's reference copy.
const lenetSeed = 42

// lenetRefs holds every image of RenderDigit's digit × shift grid with the
// class a reference network assigns it.
type lenetRefs struct {
	images [][]byte
	class  []byte
}

func newLenetRefs() (*lenetRefs, error) {
	net := lenet.New(lenetSeed)
	r := &lenetRefs{}
	for d := 0; d < 10; d++ {
		for dx := -2; dx <= 2; dx++ {
			for dy := -2; dy <= 2; dy++ {
				img := lenet.RenderDigit(d, dx, dy)
				cls, err := net.Classify(img)
				if err != nil {
					return nil, fmt.Errorf("reference classification: %w", err)
				}
				r.images = append(r.images, img)
				r.class = append(r.class, byte(cls))
			}
		}
	}
	return r, nil
}

// lenetTraffic sends a random grid image and expects its reference class.
type lenetTraffic struct {
	refs  *lenetRefs
	stats *lenetStats
	buf   []byte
	img   int
}

func (l *lenetTraffic) next(rng *rand.Rand, seq uint64, measured bool) []byte {
	l.img = rng.IntN(len(l.refs.images))
	if measured {
		l.stats.requests++
		if l.stats.seen[l.img] {
			l.stats.repeats++
		}
	}
	l.stats.seen[l.img] = true
	binary.LittleEndian.PutUint64(l.buf, seq)
	copy(l.buf[seqBytes:], l.refs.images[l.img])
	return l.buf
}

func (l *lenetTraffic) valid(resp []byte) bool {
	return len(resp) == seqBytes+1 && bytes.Equal(resp[:seqBytes], l.buf[:seqBytes]) &&
		resp[seqBytes] == l.refs.class[l.img]
}

// kvTraffic issues 25 % SETs and 75 % GETs over keys this client alone
// writes. A GET must return the value of the key's last acknowledged SET,
// or of a SET sent after it that went unanswered and so may have landed.
type kvTraffic struct {
	keys    []string
	allowed [][][]byte // per key: the values a GET may return
	buf     []byte
	key     int
	set     bool
	value   [16]byte
}

var (
	kvPreload = []byte("value-0123456789") // cluster.Build's preloaded value
	kvStored  = []byte("STORED\r\n")
)

const kvAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

func newKVTraffic(keys []string) *kvTraffic {
	k := &kvTraffic{keys: keys, allowed: make([][][]byte, len(keys))}
	for i := range k.allowed {
		k.allowed[i] = [][]byte{kvPreload}
	}
	return k
}

func (k *kvTraffic) next(rng *rand.Rand, seq uint64, _ bool) []byte {
	k.key = rng.IntN(len(k.keys))
	k.set = rng.IntN(4) == 0
	b := binary.LittleEndian.AppendUint64(k.buf[:0], seq)
	if k.set {
		for i := range k.value {
			k.value[i] = kvAlphabet[rng.IntN(len(kvAlphabet))]
		}
		b = append(b, "set "...)
		b = append(b, k.keys[k.key]...)
		b = append(b, " 0 0 16\r\n"...)
		b = append(b, k.value[:]...)
		b = append(b, "\r\n"...)
	} else {
		b = append(b, "get "...)
		b = append(b, k.keys[k.key]...)
		b = append(b, "\r\n"...)
	}
	k.buf = b
	return b
}

func (k *kvTraffic) valid(resp []byte) bool {
	answered := len(resp) >= seqBytes && bytes.Equal(resp[:seqBytes], k.buf[:seqBytes])
	if k.set {
		v := bytes.Clone(k.value[:])
		if answered && bytes.Equal(resp[seqBytes:], kvStored) {
			k.allowed[k.key] = append(k.allowed[k.key][:0], v)
			return true
		}
		k.allowed[k.key] = append(k.allowed[k.key], v)
		return false
	}
	if !answered {
		return false
	}
	v, found, err := kvstore.DecodeValue(resp[seqBytes:])
	return err == nil && found && slices.ContainsFunc(k.allowed[k.key], func(a []byte) bool { return bytes.Equal(a, v) })
}
