package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

// goldenPath is one set of committed goldens: run renders one output per
// testdata file in files, in order.
type goldenPath struct {
	name  string
	files []string
	run   func(t *testing.T) []string
}

// TestGoldens pins the simulator's outputs byte for byte, so any drift in
// virtual-time behaviour shows up as a diff in a committed file.
//
// The pinned outputs are what lynxbench prints or writes for five commands:
// `-exp all -scale 0.25 -seed 7 -csv`, the same with `-batch 8`, the same at
// `-seed 3 -loss 0.01` with invariants armed, the `-profile-json` report of
// `-exp attribution -scale 0.25 -seed 7` and the `-metrics-json` dump of
// `-exp replbreakdown -scale 0.25 -seed 7`. Every simulated number the
// evaluation reports, the scorecard and knee tables included, is a line of
// one of them.
//
// The path goldens pin what those reports aggregate away: the breakdown
// experiment's event timeline, the single-server KV service (the 1-node
// RF=1 rack) with its plane armed, and each runtime stage that runs on the
// Task substrate — TCP accept/rx, pipeline frontends, client-mqueue pumps
// and retries, the replicator pump under a replica kill — and the Innova
// AFU, which reaches the SNIC queue operations through their coroutine
// adapters, each as its exact report and, where it has a runtime tracer,
// its event sequence with virtual-time stamps.
//
// After an intentional semantic change, regenerate with `make goldens`
//
//	LYNX_UPDATE_GOLDENS=1 go test ./internal/experiments/ -run TestGoldens
//
// and say which lines moved, and why, in the commit message.
func TestGoldens(t *testing.T) {
	pinned := Config{Seed: 7, Scale: 0.25, Workers: AutoWorkers}
	batched, lossy := pinned, pinned
	batched.Batch = model.BatchConfig{Doorbell: 8, CQDrain: 8, Quantum: 8}
	lossy.Seed = 3
	lossy.Faults = fault.Config{Seed: 3, DropRate: 0.01}
	for _, g := range []goldenPath{
		{"all", []string{"all_scale025_seed7.csv"}, func(t *testing.T) []string {
			return []string{goldenAll(t, pinned)}
		}},
		{"all-batch8", []string{"all_scale025_seed7_batch8.csv"}, func(t *testing.T) []string {
			return []string{goldenAll(t, batched)}
		}},
		{"all-loss", []string{"all_scale025_seed3_loss001.csv"}, func(t *testing.T) []string {
			cfg := lossy
			cfg.Invariants = check.NewAggregate()
			out := goldenAll(t, cfg)
			if rep := cfg.Invariants.Report(); !rep.OK() {
				t.Errorf("invariants violated under loss:\n%s", rep)
			}
			return []string{out}
		}},
		{"attribution-profile", []string{"attribution_scale025_seed7_profile.json"}, func(t *testing.T) []string {
			return []string{goldenArtifact(t, pinned, "attribution", func(c *Config, path string) { c.ProfileJSON = path })}
		}},
		{"replbreakdown-metrics", []string{"replbreakdown_scale025_seed7_metrics.json"}, func(t *testing.T) []string {
			return []string{goldenArtifact(t, pinned, "replbreakdown", func(c *Config, path string) { c.MetricsJSON = path })}
		}},
		{"breakdown", []string{"pr6_breakdown_scale025_seed7_trace.json"}, func(t *testing.T) []string {
			return []string{goldenArtifact(t, pinned, "breakdown", func(c *Config, path string) { c.TraceJSON = path })}
		}},
		{"tcp-service", []string{"path_tcp_service.csv", "path_tcp_service_trace.txt"}, goldenTCPService},
		{"udp-pipeline", []string{"path_udp_pipeline.csv", "path_udp_pipeline_trace.txt"}, func(t *testing.T) []string {
			return goldenPipeline(t, core.UDP)
		}},
		{"tcp-pipeline", []string{"path_tcp_pipeline.csv", "path_tcp_pipeline_trace.txt"}, func(t *testing.T) []string {
			return goldenPipeline(t, core.TCP)
		}},
		{"tcp-client-mqueue", []string{"path_tcp_client_mqueue.csv", "path_tcp_client_mqueue_trace.txt"}, goldenTCPClientQueue},
		{"udp-client-mqueue", []string{"path_udp_client_mqueue.csv", "path_udp_client_mqueue_trace.txt"}, goldenUDPClientQueue},
		{"replication-kill", []string{"path_replication_kill.csv", "path_replication_kill_trace.txt"}, goldenReplicationKill},
		{"rf1-rack", []string{"pr9_replication_identity_scale025_seed7.csv", "pr9_replication_identity_scale025_seed7_trace.txt"}, goldenRF1Rack},
		{"innova-duplex", []string{"path_innova_duplex.csv"}, func(t *testing.T) []string {
			return []string{goldenInnovaDuplex(model.BatchConfig{})}
		}},
		{"innova-duplex-batched", []string{"path_innova_duplex_batched.csv"}, func(t *testing.T) []string {
			return []string{goldenInnovaDuplex(model.DefaultBatchConfig())}
		}},
	} {
		t.Run(g.name, func(t *testing.T) {
			for i, got := range g.run(t) {
				checkGolden(t, g.files[i], got)
			}
		})
	}
}

// checkGolden compares got with testdata/name, or rewrites the file when
// LYNX_UPDATE_GOLDENS is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("LYNX_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden: got %d bytes, want %d\n%s",
			name, len(got), len(want), firstDiff(got, string(want)))
	}
}

// goldenAll renders `lynxbench -exp all -csv` under cfg: every report's CSV,
// in List order.
func goldenAll(t *testing.T, cfg Config) string {
	out, err := Run(cfg, List()...)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range out.Reports {
		b.WriteString(r.CSV())
	}
	return b.String()
}

// goldenArtifact runs one instrumented experiment with the artifact file that
// set names and returns the file's bytes.
func goldenArtifact(t *testing.T, cfg Config, id string, set func(c *Config, path string)) string {
	path := filepath.Join(t.TempDir(), id+".json")
	set(&cfg, path)
	runReport(t, cfg, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// goldenCfg is the configuration every path golden runs under; windows are
// short and fixed so the committed files stay small.
var goldenCfg = Config{Seed: 7, Scale: 1, Workers: 1}

// goldenReport renders a path's exact outcome: the workload's counts and
// latency distribution in virtual nanoseconds, the simulator's executed
// event count, and any further counters as extra rows.
func goldenReport(id string, s *sim.Sim, res workload.Result, extra ...[2]string) string {
	r := &Report{ID: id, Columns: []string{"value"}}
	h := res.Hist
	for _, kv := range [][2]string{
		{"sent", fmt.Sprint(res.Sent)},
		{"received", fmt.Sprint(res.Received)},
		{"lost", fmt.Sprint(res.Lost)},
		{"retries", fmt.Sprint(res.Retries)},
		{"latency count", fmt.Sprint(h.Count())},
		{"latency sum ns", fmt.Sprint(int64(h.Sum()))},
		{"latency p50 ns", fmt.Sprint(int64(h.Median()))},
		{"latency p99 ns", fmt.Sprint(int64(h.P99()))},
		{"latency max ns", fmt.Sprint(int64(h.Max()))},
		{"sim events", fmt.Sprint(s.Executed())},
	} {
		r.AddRow(kv[0], kv[1])
	}
	for _, kv := range extra {
		r.AddRow(kv[0], kv[1])
	}
	return r.CSV()
}

// traceText renders a tracer's events one per line, failing if the ring
// wrapped (a truncated trace would pin only its tail).
func traceText(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	evs := tr.Events()
	if uint64(len(evs)) != tr.Total() {
		t.Fatalf("tracer kept %d of %d events; raise its capacity", len(evs), tr.Total())
	}
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// goldenTCPService is the fig8a-tcp deployment: the LeNet service on
// BlueField behind TCP, three closed-loop connections.
func goldenTCPService(t *testing.T) []string {
	e := newEnv(goldenCfg)
	plat := e.lynxPlatform(platLynxBF)
	plat.Tracer = trace.New(1 << 16)
	rt := core.NewRuntime(plat)
	target := deployLynxLeNet(e, rt, e.gpu, sharedLeNet(), 7000, core.TCP)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	res := e.measure(workload.Config{
		Proto: workload.TCP, Target: target, Payload: lenetPayload,
		Body: lenetBody, Clients: 3, Duration: 8 * time.Millisecond, Warmup: time.Millisecond,
	})
	e.tb.Sim.Shutdown()
	return []string{goldenReport("tcp-service", e.tb.Sim, res, [2]string{"runtime", rt.Stats().String()}),
		traceText(t, plat.Tracer)}
}

// goldenPipeline is ext-pipeline's composed deployment (GPU0 -> GPU1 behind
// one frontend) over proto.
func goldenPipeline(t *testing.T, proto core.Proto) []string {
	const nq = 4
	e := newEnv(goldenCfg)
	gpu2 := e.server.AddGPU("gpu1", accel.K40m, false, "server1")
	plat := e.bf.Platform(7)
	plat.Tracer = trace.New(1 << 16)
	rt := core.NewRuntime(plat)
	mqCfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
	var hs []*core.AccelHandle
	for _, g := range []*accel.GPU{e.gpu, gpu2} {
		h, err := rt.Register(g, mqCfg, nq)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		if err := g.Serve(e.tb.Sim, h.AccelQueues(), 0, 10*time.Microsecond, nil); err != nil {
			t.Fatal(err)
		}
	}
	pl, err := rt.AddPipeline(proto, 7000, nil, nq, hs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	res := e.measure(workload.Config{
		Proto: protoToWorkload(proto), Target: pl.Addr(), Payload: 64,
		Clients: 2 * nq, Duration: 2 * time.Millisecond, Warmup: 500 * time.Microsecond,
	})
	e.tb.Sim.Shutdown()
	return []string{goldenReport(proto.String()+"-pipeline", e.tb.Sim, res,
		[2]string{"runtime", rt.Stats().String()}, [2]string{"relayed", fmt.Sprint(pl.Relayed())}),
		traceText(t, plat.Tracer)}
}

// goldenTCPClientQueue is sec64-faceverify's Lynx deployment: server
// mqueues for the clients, one TCP client mqueue per threadblock to the
// memcached backend.
func goldenTCPClientQueue(t *testing.T) []string {
	const nTB = 8
	e := newEnv(goldenCfg)
	memcachedBackend(e)
	plat := e.lynxPlatform(platLynxBF)
	plat.Tracer = trace.New(1 << 16)
	rt := core.NewRuntime(plat)
	h, err := rt.Register(e.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: fvReqBytes + 96}, 2*nTB)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rt.AddService(core.UDP, 7000, nil, nTB, h)
	if err != nil {
		t.Fatal(err)
	}
	clientIdx := make([]int, nTB)
	for i := range clientIdx {
		cb, err := rt.AddClientQueue(h, core.TCP, netstack.Addr{Host: "dbserver", Port: 11211})
		if err != nil {
			t.Fatal(err)
		}
		clientIdx[i] = cb.QueueIndex()
	}
	qs := h.AccelQueues()
	if err := e.gpu.LaunchPersistent(e.tb.Sim, nTB, func(tb *accel.TB) {
		serverQ, clientQ := qs[tb.Index()], qs[clientIdx[tb.Index()]]
		for {
			m := serverQ.Recv(tb.Proc())
			label := m.Payload[workload.SeqBytes : workload.SeqBytes+fvLabelBytes]
			if clientQ.Send(tb.Proc(), 0, kvstore.AppendGet(nil, string(label))) != nil {
				return
			}
			dbReply := clientQ.Recv(tb.Proc())
			img, _, _ := kvstore.DecodeValue(dbReply.Payload)
			resp := make([]byte, workload.SeqBytes+1)
			copy(resp, m.Payload[:workload.SeqBytes])
			resp[workload.SeqBytes] = byte(len(img) >> 8)
			tb.Compute(e.params.FaceVerifyService)
			if serverQ.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: svc.Addr(), Payload: fvReqBytes,
		Body: fvBody, Clients: 2 * nTB, Duration: 2 * time.Millisecond, Warmup: 500 * time.Microsecond,
	})
	e.tb.Sim.Shutdown()
	return []string{goldenReport("tcp-client-mqueue", e.tb.Sim, res, [2]string{"runtime", rt.Stats().String()}),
		traceText(t, plat.Tracer)}
}

// goldenUDPClientQueue drives UDP client mqueues to a memcached backend over
// a lossy network, so the per-binding retry loop retransmits and gives up.
func goldenUDPClientQueue(t *testing.T) []string {
	const nTB = 4
	cfg := goldenCfg
	cfg.Faults = fault.Config{Seed: 3, DropRate: 0.25}
	e := newEnv(cfg)
	backend := e.tb.NewMachine("dbserver", 6)
	store := memcachedInstances(e.tb, backend.NetHost, backend.CPU, &e.params, 11211, 2, false, 0, nil)
	for i := 0; i < 64; i++ {
		store.Set(fmt.Sprintf("key-%03d", i), 0, []byte("value-0123456789"))
	}
	plat := e.lynxPlatform(platLynxBF)
	plat.Tracer = trace.New(1 << 16)
	rt := core.NewRuntime(plat)
	h, err := rt.Register(e.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 128}, 2*nTB)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rt.AddService(core.UDP, 7000, nil, nTB, h)
	if err != nil {
		t.Fatal(err)
	}
	clientIdx := make([]int, nTB)
	for i := range clientIdx {
		cb, err := rt.AddClientQueue(h, core.UDP, netstack.Addr{Host: "dbserver", Port: 11211})
		if err != nil {
			t.Fatal(err)
		}
		clientIdx[i] = cb.QueueIndex()
	}
	qs := h.AccelQueues()
	if err := e.gpu.LaunchPersistent(e.tb.Sim, nTB, func(tb *accel.TB) {
		serverQ, clientQ := qs[tb.Index()], qs[clientIdx[tb.Index()]]
		for {
			m := serverQ.Recv(tb.Proc())
			get := make([]byte, workload.SeqBytes, 64)
			copy(get, m.Payload[:workload.SeqBytes])
			get = kvstore.AppendGet(get, kvKeys[m.Slot%64])
			if clientQ.Send(tb.Proc(), 0, get) != nil {
				return
			}
			// A reply the backend loses for good parks this threadblock for
			// the rest of the window.
			reply := clientQ.Recv(tb.Proc())
			resp := make([]byte, workload.SeqBytes+1)
			copy(resp, m.Payload[:workload.SeqBytes])
			resp[workload.SeqBytes] = byte(len(reply.Payload))
			if serverQ.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: svc.Addr(), Payload: 64,
		Clients: 2 * nTB, Duration: 20 * time.Millisecond, Warmup: time.Millisecond,
		Timeout: 5 * time.Millisecond, Retries: 2,
	})
	e.tb.Sim.Shutdown()
	return []string{goldenReport("udp-client-mqueue", e.tb.Sim, res, [2]string{"runtime", rt.Stats().String()}),
		traceText(t, plat.Tracer)}
}

// goldenReplicationKill is the replication sweep's kill point on a short
// timeline: a 3-node RF=3 rack whose node 1 accelerator freezes at 1 ms, so
// node 0's replicator pump runs through the ack deadline, the peer-kill
// verdict and the release of every response held on the dead peer.
func goldenReplicationKill(t *testing.T) []string {
	p := model.Default()
	rack, err := cluster.Build(cluster.Config{
		Nodes: 3, Replicas: 3, Seed: goldenCfg.Seed + 1, Params: &p,
		// Node 0's event ring is the trace artifact. An hour-long monitor
		// period keeps the planes' samplers from adding events beyond their
		// spawns.
		Telemetry: &cluster.Telemetry{TracerCap: 1 << 16, Interval: time.Hour},
		Faults: fault.Config{
			Seed:   goldenCfg.Seed,
			Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1, At: time.Millisecond, For: time.Hour}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := rack.OwnedKeys(0)
	s := rack.TB.Sim
	res := workload.RunFor(s, workload.New(s, workload.Config{
		Proto: workload.UDP, Target: rack.Node(0).Addr(), Payload: 64,
		Body: func(seq uint64, buf []byte) {
			kvstore.AppendSet(buf[:workload.SeqBytes], keys[seq%uint64(len(keys))], 0, []byte("value-0123456789"))
		},
		Clients: 2, Duration: 8 * time.Millisecond, Warmup: 500 * time.Microsecond,
		Timeout: 2 * time.Millisecond, Retries: 3,
	}, rack.Clients...))
	s.Shutdown()
	repl := rack.Node(0).Repl
	return []string{goldenReport("replication-kill", s, res,
		[2]string{"runtime", rack.Node(0).RT.Stats().String()}, [2]string{"replication", repl.Stats().String()}),
		traceText(t, rack.Node(0).Prof.Events())}
}

// goldenRF1Rack is the single-server KV service — a 1-node, RF=1 rack built
// by Config.rack — under a write workload, with its observability plane
// armed. Beside the report and the node's event trace it checks that the
// rack's timeline and metrics rollup render the node's own plane byte for
// byte: a 1-node rack exports as the one server it is.
func goldenRF1Rack(t *testing.T) []string {
	cfg := Config{Seed: 7, Scale: 0.25}
	window := cfg.window(20 * time.Millisecond)
	rack := cfg.rack(cluster.Config{Nodes: 1, Replicas: 1, Telemetry: &cluster.Telemetry{TracerCap: 1 << 20}})
	res := rack.Measure(workload.Config{
		Proto: workload.UDP, Target: rack.Node(0).Addr(), Payload: 64,
		Body: func(seq uint64, buf []byte) {
			kvstore.AppendSet(buf[:workload.SeqBytes], kvKeys[seq%512], 0, []byte("value-0123456789"))
		},
		Clients: 8, Duration: window, Warmup: window / 5,
		Timeout: 2 * time.Millisecond, Retries: 3,
	})
	rack.Close()
	prof := rack.Node(0).Prof
	var rackTL, nodeTL, rackMD, nodeMD bytes.Buffer
	for _, err := range []error{
		trace.WriteJSON(&rackTL, rack.TraceExport()...), trace.WriteJSON(&nodeTL, prof.Export("server1")),
		rack.TelemetrySnapshot().Dump(&rackMD), prof.Registry().Dump(&nodeMD),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if rackTL.Len() == 0 || rackTL.String() != nodeTL.String() {
		t.Errorf("1-node rack timeline (%d bytes) is not its node's (%d bytes):\n%s",
			rackTL.Len(), nodeTL.Len(), firstDiff(rackTL.String(), nodeTL.String()))
	}
	if rackMD.Len() == 0 || rackMD.String() != nodeMD.String() {
		t.Errorf("1-node rack metrics rollup (%d bytes) is not its node's registry (%d bytes):\n%s",
			rackMD.Len(), nodeMD.Len(), firstDiff(rackMD.String(), nodeMD.String()))
	}
	r := &Report{ID: "replication-identity", Columns: []string{"goodput", "req/s", "p99", "retries"}}
	r.AddRow("RF=1", fmt.Sprintf("%.3f", res.GoodputFraction()), res.Throughput(), res.Hist.P99(), fmt.Sprint(res.Retries))
	return []string{r.CSV(), traceText(t, prof.Events())}
}

// goldenInnovaDuplex is ext-innova-duplex's FPGA echo: the AFU's receive
// and egress stages drive the queue group from coroutine processes. Innova
// has no runtime tracer, so the golden pins the executed event count and
// the AFU counters.
func goldenInnovaDuplex(batch model.BatchConfig) string {
	const nq = 16
	p := model.Default()
	p.Batch = batch
	e := newEnvWith(goldenCfg, &p)
	in := e.server.AttachInnova("innova1")
	qs, err := in.ServeUDPFullDuplex(7000, e.gpu, mqueue.Config{Slots: 16, SlotSize: 128}, nq)
	if err != nil {
		panic(err)
	}
	if err := e.gpu.Serve(e.tb.Sim, qs, 0, 0, nil); err != nil {
		panic(err)
	}
	res := e.measure(workload.Config{
		Proto: workload.UDP, Target: in.NetHost.Addr(7000), Payload: 64,
		Clients: 8, RatePerSec: 2e6, Duration: time.Millisecond, Warmup: 250 * time.Microsecond,
	})
	e.tb.Sim.Shutdown()
	received, dropped := in.Stats()
	return goldenReport("innova-duplex", e.tb.Sim, res,
		[2]string{"afu received", fmt.Sprint(received)},
		[2]string{"afu dropped", fmt.Sprint(dropped)},
		[2]string{"afu sent", fmt.Sprint(in.Sent())},
		[2]string{"rdma ops", fmt.Sprint(in.RDMA.Ops())})
}

// firstDiff renders the first divergent line pair for a readable failure.
func firstDiff(got, want string) string {
	g, w := splitLines(got), splitLines(want)
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return "first diff at line " + itoa(i+1) + ":\n got: " + g[i] + "\nwant: " + w[i]
		}
	}
	return "files differ only in length"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
