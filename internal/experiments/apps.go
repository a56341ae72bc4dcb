package experiments

import (
	"bytes"
	"fmt"
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/kvstore"
	"lynx/internal/apps/lbp"
	"lynx/internal/apps/secure"
	"lynx/internal/core"
	"lynx/internal/hostcentric"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/snic"
	"lynx/internal/workload"
)

func init() {
	register("fig9", "memcached co-location: host cores vs BlueField (Fig. 9)", fig9)
	register("sec64-faceverify", "multi-tier face verification server (§6.4)", sec64FaceVerify)
	register("sec62-vca", "VCA/SGX secure computing server (§6.2)", sec62VCA)
}

// ---------------------------------------------------------------------------
// Fig. 9: memcached + LeNet co-location

// memcachedInstances runs n memcached worker processes on the machine's
// cores (one pinned instance per core, the paper's deployment), serving the
// real kvstore over UDP. batched selects the BlueField throughput-optimized
// mode (deep batching: higher throughput, much higher latency).
func memcachedInstances(tb *snic.Testbed, host *netstack.Host, machine interface {
	Exec(p *sim.Proc, d time.Duration)
	Scale(d time.Duration) time.Duration
}, params *model.Params, port uint16, n int, kernelStack bool, batchLatency time.Duration, served *uint64) *kvstore.Store {
	store := kvstore.NewStore(16, 0)
	sock := host.MustUDPBind(port)
	stackCost := params.UDPCost(model.XeonCore, !kernelStack)
	if kernelStack {
		// The BlueField runs memcached over the kernel stack (§6.3's
		// efficiency experiment); ARM syscalls are dearer (§5.1.1).
		stackCost = time.Duration(float64(stackCost) * params.ARMSyscallPenalty)
	}
	for i := 0; i < n; i++ {
		tb.Sim.Spawn(fmt.Sprintf("memcached/%s/%d", host.Name(), i), func(p *sim.Proc) {
			var out []byte // the reply, reused: SendTo copies it
			for {
				dg := sock.Recv(p)
				machine.Exec(p, stackCost)
				// Strip the sequence header, serve, re-prefix.
				if len(dg.Payload) < workload.SeqBytes {
					continue
				}
				machine.Exec(p, params.MemcachedOpXeon)
				out = store.AppendServe(append(out[:0], dg.Payload[:workload.SeqBytes]...), dg.Payload[workload.SeqBytes:])
				machine.Exec(p, stackCost)
				if served != nil {
					*served++
				}
				if batchLatency > 0 {
					// Throughput-optimized batching: replies leave in batch
					// windows. Throughput is unaffected; latency pays the
					// window (Fig. 9: 160 µs p99 on BlueField at 400 Ktps).
					// The reply leaves after the next one is built: it
					// needs a copy of its own.
					from, batched := dg.From, bytes.Clone(out)
					tb.Sim.After(batchLatency, func() { sock.SendTo(from, batched) })
					continue
				}
				sock.SendTo(dg.From, out)
			}
		})
	}
	return store
}

// kvKeys is the key universe every KV deployment preloads, cluster.Build's
// key-%03d names, which the KV request bodies cycle through.
var kvKeys = func() []string {
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	return keys
}()

// preloadKV stores the preloaded value under every key of kvKeys.
func preloadKV(store *kvstore.Store) {
	for _, k := range kvKeys {
		store.Set(k, 0, []byte("value-0123456789"))
	}
}

// kvGetBody writes a GET of the seq-th preloaded key after the header.
func kvGetBody(seq uint64, buf []byte) {
	kvstore.AppendGet(buf[:workload.SeqBytes], kvKeys[seq%uint64(len(kvKeys))])
}

// colocationCell is one Fig. 9 placement: memcached on hostCores host
// cores, optionally 7 more instances on the BlueField (throughput- or
// latency-optimized), and the Lynx LeNet service on one host core or the
// BlueField, whichever memcached leaves free.
type colocationCell struct {
	hostCores                              int
	bfMemcached, bfBatched, lynxOnHostCore bool
}

// colocation is a Fig. 9 row's measurements.
type colocation struct {
	hostTput, bfTput, lenetTput float64
	hostP99, bfP99              time.Duration
}

func (c colocationCell) run(cfg Config) colocation {
	window := cfg.window(20 * time.Millisecond)
	e := newEnv(cfg)
	var hostServed, bfServed uint64
	preloadKV(memcachedInstances(e.tb, e.server.NetHost, e.server.CPU, &e.params, 11211, c.hostCores, false, 0, &hostServed))
	if c.bfMemcached {
		batch := time.Duration(0)
		if c.bfBatched {
			batch = e.params.MemcachedBatchLatencyBF
		}
		preloadKV(memcachedInstances(e.tb, e.bf.NetHost, e.bf.ARM, &e.params, 11211, 7, true, batch, &bfServed))
	}
	// The LeNet service rides on whatever platform is left.
	lynxPlat := e.bf.Platform(7)
	if c.lynxOnHostCore {
		lynxPlat = e.server.HostPlatform(1, true)
	}
	rt := core.NewRuntime(lynxPlat)
	lenetTarget := deployLynxLeNet(e, rt, e.gpu, sharedLeNet(), 7000, core.UDP)
	rt.Start()

	hostRes := workload.New(e.tb.Sim, workload.Config{
		Proto: workload.UDP, Target: e.server.NetHost.Addr(11211), Payload: 64,
		Body:    kvGetBody,
		Clients: 4 * c.hostCores, Duration: window, Warmup: window / 5,
		BasePort: 21000,
	}, e.clients[0]).Run()
	var bfRes *workload.Result
	if c.bfMemcached {
		bfRes = workload.New(e.tb.Sim, workload.Config{
			Proto: workload.UDP, Target: e.bf.NetHost.Addr(11211), Payload: 64,
			Body: kvGetBody,
			// Throughput-optimized: enough concurrency to saturate.
			// Latency-optimized: light load, chasing the host's 15µs p99
			// target (which BlueField cannot reach, §6.3).
			Clients:  map[bool]int{true: 96, false: 8}[c.bfBatched],
			Duration: window, Warmup: window / 5,
			BasePort: 22000,
		}, e.clients[1]).Run()
	}
	lenetRes := workload.New(e.tb.Sim, workload.Config{
		Proto: workload.UDP, Target: lenetTarget, Payload: lenetPayload,
		Body: lenetBody, Clients: 3, Duration: window, Warmup: window / 5,
		BasePort: 23000,
	}, e.clients[0]).Run()

	e.tb.Sim.RunUntil(e.tb.Sim.Now().Add(window + window/3))
	e.tb.Sim.Shutdown()
	out := colocation{hostTput: hostRes.Throughput(), hostP99: hostRes.Hist.P99(), lenetTput: lenetRes.Throughput()}
	if bfRes != nil {
		// Throughput from server-side completions (closed-loop client
		// receipts understate batched configurations); latency from the
		// clients.
		out.bfTput = float64(bfServed) / (window + window/5).Seconds()
		out.bfP99 = bfRes.Hist.P99()
	}
	return out
}

func fig9(cfg Config) *Report {
	rows := []struct {
		name string
		colocationCell
	}{
		{"5 cores", colocationCell{5, false, false, false}},
		{"5 cores + BF (tput opt)", colocationCell{5, true, true, true}},
		{"5 cores + BF (latency opt)", colocationCell{5, true, false, true}},
		{"6 cores", colocationCell{6, false, false, false}},
	}
	var pts []colocationCell
	for _, row := range rows {
		pts = append(pts, row.colocationCell)
	}
	res := measureAll(cfg, pts)
	r := &Report{
		ID:      "fig9",
		Title:   "memcached throughput/latency across placements (Fig. 9)",
		Columns: []string{"memcached tput", "host p99", "BF tput", "BF p99", "LeNet req/s"},
	}
	for _, row := range rows {
		o := res[row.colocationCell]
		bfT, bfL := "-", "-"
		if o.bfTput > 0 {
			bfT, bfL = fmtFloat(o.bfTput), o.bfP99.Round(time.Microsecond).String()
		}
		r.AddRow(row.name, o.hostTput, o.hostP99, bfT, bfL, o.lenetTput)
	}
	r.Note("paper: ~250 Ktps/Xeon core at 15µs p99; BlueField adds 400 Ktps at 160µs p99 (tput-optimized)")
	r.Note("paper: the 15µs latency target is unreachable on BlueField (latency-optimized row)")
	r.Note("paper: LeNet stays at 3.5K req/s in every placement")
	return r
}

// ---------------------------------------------------------------------------
// §6.4: Face Verification (multi-tier)

const (
	fvLabelBytes = 12
	fvReqBytes   = workload.SeqBytes + fvLabelBytes + lbp.ImageBytes
)

// fvBody builds [seq][label][probe image] requests for a random identity.
func fvBody(seq uint64, buf []byte) {
	id := uint32(seq % 500)
	copy(buf[workload.SeqBytes:], []byte(fmt.Sprintf("person-%05d", id)))
	probe := lbp.SynthFace(id, uint32(seq))
	copy(buf[workload.SeqBytes+fvLabelBytes:], probe)
}

// fvPopulate stores every identity's reference image.
func fvPopulate(store *kvstore.Store) {
	for id := uint32(0); id < 500; id++ {
		store.Set(fmt.Sprintf("person-%05d", id), 0, lbp.SynthFace(id, 0))
	}
}

// fvVerify runs the real LBP comparison against the deployment's gallery,
// returning [seq][0|1].
func fvVerify(g *lbp.Gallery, req, dbImage []byte) []byte {
	resp := make([]byte, workload.SeqBytes+1)
	copy(resp, req[:workload.SeqBytes])
	probe := req[workload.SeqBytes+fvLabelBytes : fvReqBytes]
	if ok, _, err := g.Verify(probe, dbImage, lbp.DefaultThreshold); err == nil && ok {
		resp[workload.SeqBytes] = 1
	}
	return resp
}

// memcachedBackend hosts the image database on its own machine (TCP).
func memcachedBackend(e *env) {
	backend := e.tb.NewMachine("dbserver", 6)
	store := kvstore.NewStore(16, 0)
	fvPopulate(store)
	l := backend.NetHost.MustTCPListen(11211)
	e.tb.Sim.Spawn("memcached-backend", func(p *sim.Proc) {
		for {
			conn := l.Accept(p)
			e.tb.Sim.Spawn("memcached-conn", func(p *sim.Proc) {
				var reply []byte // reused: Send copies it
				for {
					msg, err := conn.Recv(p)
					if err != nil {
						return
					}
					backend.CPU.ExecOn(p, e.params.MemcachedOpXeon)
					reply = store.AppendServe(reply[:0], msg)
					if conn.Send(p, reply) != nil {
						return
					}
				}
			})
		}
	})
}

// faceVerifyCell is the §6.4 face verification server on one platform: the
// host-centric baseline, or Lynx with 28 server mqueues, one LBP
// threadblock each, whose client mqueues reach the memcached backend over
// TCP. Both fetch the reference image from the same backend machine.
type faceVerifyCell struct{ plat string }

func (c faceVerifyCell) run(cfg Config) workload.Result {
	window := cfg.window(40 * time.Millisecond)
	const nTB = 28 // 28 server mqueues / threadblocks (§6.4)
	e := newEnv(cfg)
	memcachedBackend(e)
	gallery := lbp.NewGallery()
	target := e.server.NetHost.Addr(7000)
	if c.plat == platHostCentric {
		// Pool of memcached connections shared by the stream workers.
		conns := sim.NewChan[*netstack.TCPConn](e.tb.Sim, 0)
		e.tb.Sim.Spawn("conn-pool", func(p *sim.Proc) {
			for i := 0; i < nTB; i++ {
				conn, err := e.server.NetHost.TCPDial(p, netstack.Addr{Host: "dbserver", Port: 11211})
				if err != nil {
					return
				}
				conns.Put(p, conn)
			}
		})
		sv := hostcentric.New(e.tb.Sim, e.tb.Params, e.server.CPU, e.server.NetHost, e.gpu, hostcentric.Config{
			Port: 7000, Streams: nTB, Cores: 2, Bypass: true,
			KernelTime: e.params.FaceVerifyService,
			H2DBytes:   2 * lbp.ImageBytes, D2HBytes: 16,
			PreKernel: func(p *sim.Proc, req []byte) []byte {
				if len(req) < fvReqBytes {
					return req
				}
				label := req[workload.SeqBytes : workload.SeqBytes+fvLabelBytes]
				conn := conns.Get(p)
				defer conns.Put(p, conn)
				e.server.CPU.ExecOn(p, e.params.TCPCost(model.XeonCore, true))
				if conn.Send(p, kvstore.AppendGet(nil, string(label))) != nil {
					return req
				}
				reply, err := conn.Recv(p)
				if err != nil {
					return req
				}
				e.server.CPU.ExecOn(p, e.params.TCPCost(model.XeonCore, true))
				img, ok, derr := kvstore.DecodeValue(reply)
				if derr != nil || !ok {
					return req
				}
				return append(append([]byte{}, req...), img...)
			},
			Handler: func(req []byte) []byte {
				if len(req) < fvReqBytes+lbp.ImageBytes {
					return req[:workload.SeqBytes+1]
				}
				return fvVerify(gallery, req[:fvReqBytes], req[fvReqBytes:fvReqBytes+lbp.ImageBytes])
			},
		})
		if err := sv.Start(); err != nil {
			panic(err)
		}
	} else {
		rt := core.NewRuntime(e.lynxPlatform(c.plat))
		// Slots fit both the 1044-byte requests and the memcached VALUE
		// replies (header line + 1024-byte image + trailer).
		mqCfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: fvReqBytes + 96}
		h, err := rt.Register(e.gpu, mqCfg, 2*nTB) // server + client queue per TB
		if err != nil {
			panic(err)
		}
		svc, err := rt.AddService(core.UDP, 7000, nil, nTB, h)
		if err != nil {
			panic(err)
		}
		// One client mqueue per threadblock, all bound to the memcached
		// backend over TCP (§6.4).
		clientIdx := make([]int, nTB)
		for i := 0; i < nTB; i++ {
			cb, err := rt.AddClientQueue(h, core.TCP, netstack.Addr{Host: "dbserver", Port: 11211})
			if err != nil {
				panic(err)
			}
			clientIdx[i] = cb.QueueIndex()
		}
		qs := h.AccelQueues()
		if err := e.gpu.LaunchPersistent(e.tb.Sim, nTB, func(tb *accel.TB) {
			serverQ := qs[tb.Index()]
			clientQ := qs[clientIdx[tb.Index()]]
			var get []byte // the database request, reused: Send copies it
			for {
				m := serverQ.Recv(tb.Proc())
				if len(m.Payload) < fvReqBytes {
					continue
				}
				label := m.Payload[workload.SeqBytes : workload.SeqBytes+fvLabelBytes]
				get = kvstore.AppendGet(get[:0], string(label))
				if clientQ.Send(tb.Proc(), 0, get) != nil {
					return
				}
				dbReply := clientQ.Recv(tb.Proc())
				img, ok, err := kvstore.DecodeValue(dbReply.Payload)
				if err != nil || !ok {
					continue
				}
				resp := fvVerify(gallery, m.Payload, img)
				tb.Compute(e.params.FaceVerifyService) // the LBP kernel, ~50µs
				if serverQ.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
					return
				}
			}
		}); err != nil {
			panic(err)
		}
		rt.Start()
		target = svc.Addr()
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: fvReqBytes,
		Body: fvBody, Clients: 2 * nTB, Duration: window, Warmup: window / 5,
	})
	e.tb.Sim.Shutdown()
	return res
}

func sec64FaceVerify(cfg Config) *Report {
	res := measureAll(cfg, []faceVerifyCell{{platHostCentric}, {platLynxBF}, {platLynx6Xeon}})
	hc := res[faceVerifyCell{platHostCentric}]
	r := &Report{
		ID:      "sec64-faceverify",
		Title:   "Face Verification server: GPU frontend + memcached backend (§6.4)",
		Columns: []string{"req/s", "p99", "speedup", "paper speedup"},
	}
	r.AddRow(platHostCentric, hc.Throughput(), hc.Hist.P99(), "1.0x", "1.0x")
	for _, row := range []struct{ plat, paper string }{{platLynxBF, "4.4x"}, {platLynx6Xeon, "4.6x"}} {
		lx := res[faceVerifyCell{row.plat}]
		r.AddRow(row.plat, lx.Throughput(), lx.Hist.P99(), fmtFloat(speedup(lx.Throughput(), hc.Throughput()))+"x", row.paper)
	}
	r.Note("28 server mqueues, one LBP threadblock each; client mqueues reach memcached over TCP")
	r.Note("paper: BlueField ~5%% below Xeon due to its slower TCP stack")
	return r
}

// ---------------------------------------------------------------------------
// §6.2: VCA / SGX secure computing

// vcaPayload is a §6.2 request: the sequence header and one sealed operand.
const vcaPayload = workload.SeqBytes + secure.CipherSize

// vcaCell is the §6.2 secure multiply service on the VCA, at 1K req/s: the
// VCA node polls an mqueue in host-mapped memory fed by Lynx on BlueField,
// or, with bridge set, the Intel-preferred host network bridge carries each
// request into the VCA nodes' native Linux stack (§6.2: "a host-based
// network bridge"). Either way the enclave decrypts, multiplies and
// encrypts.
type vcaCell struct{ bridge bool }

func (c vcaCell) run(cfg Config) workload.Result {
	window := cfg.window(250 * time.Millisecond)
	e := newEnv(cfg)
	cipher, err := secure.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		panic(err)
	}
	vca := e.server.AddVCA("vca0")
	enc := vca.NewEnclave()
	serve := func(p *sim.Proc, req []byte) []byte {
		resp := make([]byte, vcaPayload)
		copy(resp, req[:workload.SeqBytes])
		var out []byte
		enc.ECall(p, e.params.SecureComputeService, func() {
			if o, err := secure.EnclaveCompute(cipher, req[workload.SeqBytes:vcaPayload]); err == nil {
				out = o
			}
		})
		copy(resp[workload.SeqBytes:], out)
		return resp
	}
	target := e.server.NetHost.Addr(7000)
	if c.bridge {
		sock := e.server.NetHost.MustUDPBind(7000)
		// One server context per VCA node (three E3 processors, §5.4).
		for node := 0; node < vca.Nodes(); node++ {
			e.tb.Sim.Spawn(fmt.Sprintf("vca-bridge-server/%d", node), func(p *sim.Proc) {
				for {
					dg := sock.Recv(p)
					// Host bridge + IP-over-PCIe tunnel + VCA kernel
					// stack, each way.
					p.Sleep(e.params.VCABridgeKernelPath)
					if len(dg.Payload) < vcaPayload {
						continue
					}
					resp := serve(p, dg.Payload)
					p.Sleep(e.params.VCABridgeKernelPath)
					sock.SendTo(dg.From, resp)
				}
			})
		}
	} else {
		rt := core.NewRuntime(e.bf.Platform(7))
		h, err := rt.Register(vca, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: vcaPayload + 16}, 1)
		if err != nil {
			panic(err)
		}
		svc, err := rt.AddService(core.UDP, 7000, nil, 1, h)
		if err != nil {
			panic(err)
		}
		aq := h.AccelQueues()[0]
		e.tb.Sim.Spawn("vca-node0", func(p *sim.Proc) {
			for {
				m := aq.Recv(p)
				if len(m.Payload) < vcaPayload {
					continue
				}
				if aq.Send(p, uint16(m.Slot), serve(p, m.Payload)) != nil {
					return
				}
			}
		})
		rt.Start()
		target = svc.Addr()
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: target, Payload: vcaPayload,
		Body: func(seq uint64, buf []byte) {
			copy(buf[workload.SeqBytes:], cipher.Seal(uint32(seq)))
		},
		Clients: 1, RatePerSec: 1000, Poisson: true,
		Duration: window, Warmup: window / 5,
	})
	e.tb.Sim.Shutdown()
	return res
}

func sec62VCA(cfg Config) *Report {
	res := measureAll(cfg, []vcaCell{{false}, {true}})
	lynx, base := res[vcaCell{false}], res[vcaCell{true}]
	r := &Report{
		ID:      "sec62-vca",
		Title:   "SGX secure multiply on Intel VCA at 1K req/s (§6.2)",
		Columns: []string{"p90", "p99", "req/s", "paper p90"},
	}
	r.AddRow("Lynx (mqueue into mapped memory)", lynx.Hist.P90(), lynx.Hist.P99(), lynx.Throughput(), "56µs")
	r.AddRow("native bridge baseline", base.Hist.P90(), base.Hist.P99(), base.Throughput(), "~240µs (4.3x)")
	r.AddRow("baseline/Lynx p90", fmtFloat(speedup(float64(base.Hist.P90()), float64(lynx.Hist.P90())))+"x", "", "", "4.3x")
	r.Note("AES-GCM runs for real inside the simulated enclave; SGX transitions cost %v each", model.Default().SGXTransition)
	return r
}
