// Command lynxd boots a simulated Lynx deployment and serves a workload,
// printing periodic live statistics — the closest thing to "running the
// server" this reproduction offers.
//
// Usage:
//
//	lynxd                          # GPU echo service on BlueField, default load
//	lynxd -app lenet               # LeNet digit-recognition service
//	lynxd -platform xeon -cores 6  # run Lynx on host cores instead
//	lynxd -rate 50000 -secs 2      # open-loop load, simulated seconds
//	lynxd -batch 8                 # batch the hot path end to end by 8
//	lynxd -invariants              # arm runtime invariant checks
//	lynxd -profile-json prof.json  # tail-latency attribution report on exit
//	lynxd -trace-json t.json -metrics-json m.json
//	                               # timeline and metrics dump (any node count)
//	lynxd -nodes 3 -replicas 3     # replicated KV rack, writes quorum-replicated
//	lynxd -nodes 3 -replicas 3 -stall-queue -1 -stall-at 100ms
//	                               # ...and kill a replica mid-run (failover demo)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lynx"
	"lynx/internal/apps/kvstore"
	"lynx/internal/apps/lenet"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/profile"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lynxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app        = fs.String("app", "echo", "service to run: echo | lenet")
		platform   = fs.String("platform", "bluefield", "lynx platform: bluefield | xeon")
		cores      = fs.Int("cores", 7, "worker cores for the Lynx runtime")
		queues     = fs.Int("queues", 8, "server mqueues / GPU threadblocks (echo app)")
		rate       = fs.Float64("rate", 0, "open-loop request rate (0 = closed loop)")
		clients    = fs.Int("clients", 16, "closed-loop client count")
		retries    = fs.Int("retries", 0, "closed-loop same-seq retransmits before a request counts lost")
		secs       = fs.Float64("secs", 1.0, "simulated seconds to run")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		traceN     = fs.Int("trace", 0, "dump the last N runtime trace events (at most the event ring's 4096; a rack's node 0)")
		traceOut   = fs.String("trace-json", "", "write the Chrome trace-event timeline (spans, samples, events; one process-track block per rack node) to this file")
		metricsOut = fs.String("metrics-json", "", "write the deterministic metrics dump (stats and monitor series; a rack's per node) to this file")
		profOut    = fs.String("profile-json", "", "write the tail-latency attribution report (wait/service decomposition, bottleneck ranking, flight recorder; a rack's node 0) to this file on exit; with -invariants, the first violation also dumps <file>.postmortem")
		invariants = fs.Bool("invariants", false, "arm runtime invariant checks; non-zero exit on any violation")
		batch      = fs.Int("batch", 0, "doorbell batch size (0 = unbatched per-message hot path)")
		loss       = fs.Float64("loss", 0, "inject datagram drop probability (0..1)")
		dup        = fs.Float64("dup", 0, "inject datagram duplication probability (0..1)")
		rdmaErr    = fs.Float64("rdma-err", 0, "inject RDMA completion error probability (0..1)")
		stallQ     = fs.Int("stall-queue", -2, "accelerator queue to stall (-2 = none; -1 = all queues, the whole-accelerator kill)")
		stallAt    = fs.Duration("stall-at", 50*time.Millisecond, "when the stall window opens")
		stallFor   = fs.Duration("stall-for", 100*time.Millisecond, "how long the stalled queue stays dead")
		nodes      = fs.Int("nodes", 1, "rack node count; >1 (or -replicas >1) boots the multi-node replicated KV rack instead of -app")
		replicas   = fs.Int("replicas", 1, "rack replication factor: each write is applied on RF-1 peer accelerators before its response releases")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "lynxd:", err)
		return 1
	}

	fc := lynx.FaultConfig{
		Seed: *seed, DropRate: *loss, DupRate: *dup, RDMAErrRate: *rdmaErr,
	}
	if err := fc.Validate(); err != nil {
		fmt.Fprintln(stderr, "lynxd:", err)
		return 2
	}
	rackMode := *nodes > 1 || *replicas > 1
	if *stallQ >= -1 {
		// Single-server stalls hit the serving GPU; in rack mode the stall
		// targets node 1's accelerator — a replica kill, the failover demo.
		accel := "gpu0"
		if rackMode {
			accel = "gpu1"
		}
		fc.Stalls = []lynx.FaultStall{{Accel: accel, Queue: *stallQ, At: *stallAt, For: *stallFor}}
	}
	obs := observability{traceN: *traceN, files: profile.Files{Trace: *traceOut, Metrics: *metricsOut, Profile: *profOut}}
	if rackMode {
		var single []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "app", "platform", "cores", "queues", "batch":
				single = append(single, "-"+f.Name)
			}
		})
		if len(single) > 0 {
			fmt.Fprintln(stderr, "lynxd: single-server flags not valid with a -nodes/-replicas rack:", strings.Join(single, ", "))
			return 2
		}
		return runRack(*nodes, *replicas, *seed, fc, *clients, *retries, *rate, *secs, *invariants, obs, stdout, stderr)
	}
	opts := []lynx.Option{lynx.WithSeed(*seed), lynx.WithFaults(fc)}
	if bc, err := model.BatchConfigFromFlags(*batch); err != nil {
		return fail(err)
	} else if bc != (lynx.BatchConfig{}) {
		opts = append(opts, lynx.WithBatching(bc))
	}
	if *invariants {
		opts = append(opts, lynx.WithInvariants())
	}
	if obs.armed() {
		opts = append(opts, lynx.WithProfile())
	}
	cluster := lynx.NewCluster(opts...)
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")

	var plat = bf.Platform(*cores)
	if *platform == "xeon" {
		plat = server.HostPlatform(*cores, true)
	}
	srv := cluster.NewServer(plat)

	var payload int
	var body func(seq uint64, buf []byte)
	switch *app {
	case "echo":
		payload = 64
		h, err := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128}, *queues)
		if err != nil {
			return fail(err)
		}
		if _, err := srv.AddService(lynx.UDP, 7000, nil, *queues, h); err != nil {
			return fail(err)
		}
		qs := h.AccelQueues()
		if err := gpu.LaunchPersistent(cluster.Testbed().Sim, *queues, func(tb *lynx.TB) {
			aq := qs[tb.Index()]
			for {
				m := aq.Recv(tb.Proc())
				tb.Compute(20 * time.Microsecond)
				if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		}); err != nil {
			return fail(err)
		}
	case "lenet":
		payload = workload.SeqBytes + lenet.InputBytes
		net := lenet.New(42)
		h, err := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: payload + 16}, 1)
		if err != nil {
			return fail(err)
		}
		if _, err := srv.AddService(lynx.UDP, 7000, nil, 1, h); err != nil {
			return fail(err)
		}
		aq := h.AccelQueues()[0]
		svcTime := cluster.Params().LeNetServiceK40
		body = func(seq uint64, buf []byte) {
			copy(buf[workload.SeqBytes:], lenet.RenderDigit(int(seq%10), 0, 0))
		}
		if err := gpu.LaunchPersistent(cluster.Testbed().Sim, 1, func(tb *lynx.TB) {
			resp := make([]byte, workload.SeqBytes+1) // reused: Send copies it into the TX ring
			for {
				m := aq.Recv(tb.Proc())
				copy(resp, m.Payload[:workload.SeqBytes])
				resp[workload.SeqBytes] = 0
				if cls, err := net.Classify(m.Payload[workload.SeqBytes:]); err == nil {
					resp[workload.SeqBytes] = byte(cls)
				}
				tb.SpawnChild(svcTime)
				if aq.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
					return
				}
			}
		}); err != nil {
			return fail(err)
		}
	default:
		fmt.Fprintln(stderr, "lynxd: unknown app", *app)
		return 2
	}
	if err := srv.Start(); err != nil {
		return fail(err)
	}
	prof := cluster.Profile()
	if prof != nil {
		cluster.Testbed().RegisterStats(prof.Registry())
	}
	if *profOut != "" {
		cluster.ArmProfilePostmortem(*profOut + ".postmortem")
	}

	target := plat.NetHost.Addr(7000)
	fmt.Fprintf(stdout, "lynxd: %s service on %s (%s, %d cores), %d mqueues\n",
		*app, target, *platform, *cores, *queues)

	window := time.Duration(*secs * float64(time.Second))
	gen := cluster.NewLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: target, Payload: payload, Body: body,
		Clients: *clients, RatePerSec: *rate, Retries: *retries,
		Duration: window, Warmup: window / 10,
	}, client)
	res := gen.Run()

	// Live stats every simulated 100 ms.
	step := 100 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < window+window/10; elapsed += step {
		cluster.Run(step)
		st := srv.Stats()
		fmt.Fprintf(stdout, "  t=%-8v %s inflight~%d\n",
			cluster.Now().Round(time.Millisecond), st, st.Received-st.Responded)
	}
	cluster.Run(50 * time.Millisecond)
	fmt.Fprintf(stdout, "\nresult: %v\n", *res)
	if fc.Enabled() {
		fmt.Fprintf(stdout, "faults injected: %s\n", cluster.FaultStats())
	}
	if err := obs.finish(stdout, prof, []trace.Export{prof.Export("server1")}, prof.Registry()); err != nil {
		return fail(err)
	}
	cluster.Close()
	if *invariants {
		rep := cluster.InvariantReport()
		fmt.Fprintln(stdout, rep)
		if !rep.OK() {
			return 1
		}
	}
	return 0
}

// runRack boots the multi-node replicated KV rack (-nodes / -replicas) and
// drives a closed- or open-loop SET workload against node 0's owned keys,
// printing periodic runtime and replication statistics. A -stall-queue window
// freezes node 1's accelerator — the replica-kill failover demo.
func runRack(nodes, replicas int, seed uint64, fc lynx.FaultConfig, clients, retries int, rate, secs float64, invariants bool, obs observability, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lynxd:", err)
		return 1
	}
	cfg := lynx.RackConfig{Nodes: nodes, Replicas: replicas, Seed: seed, Faults: fc}
	if obs.armed() {
		cfg.Telemetry = &lynx.RackTelemetry{}
	}
	var ck *lynx.InvariantChecker
	if invariants {
		ck = lynx.NewInvariantChecker()
		cfg.Check = ck
	}
	rack, err := lynx.BuildRack(cfg)
	if err != nil {
		return fail(err)
	}
	node0 := rack.Node(0).Prof
	if p := obs.files.Profile; p != "" {
		node0.ArmPostmortem(ck, p+".postmortem")
	}
	keys := rack.OwnedKeys(0)
	if len(keys) == 0 {
		return fail(fmt.Errorf("node 0 owns no keys"))
	}
	target := rack.Node(0).Addr()
	fmt.Fprintf(stdout, "lynxd: replicated KV rack, %d nodes RF=%d, writes to %s (%d keys owned by node 0)\n",
		nodes, replicas, target, len(keys))

	window := time.Duration(secs * float64(time.Second))
	var value []byte // the next write's value, reused: AppendSet copies it
	gen := workload.New(rack.TB.Sim, workload.Config{
		Proto: workload.UDP, Target: target, Payload: 64,
		Body: func(seq uint64, buf []byte) {
			value = fmt.Appendf(value[:0], "value-%010d", seq)
			kvstore.AppendSet(buf[:workload.SeqBytes], keys[seq%uint64(len(keys))], 0, value)
		},
		Clients: clients, RatePerSec: rate, Retries: retries,
		Duration: window, Warmup: window / 10,
		Timeout: 2 * time.Millisecond, Check: ck,
		// Client-side span stamps land in the measured primary's table when
		// the observability plane is armed (nil otherwise — stamps disabled).
		Spans: node0.Spans(),
	}, rack.Clients...)
	res := gen.Run()

	step := 100 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < window+window/10; elapsed += step {
		rack.TB.Sim.RunUntil(rack.TB.Sim.Now().Add(step))
		now := time.Duration(rack.TB.Sim.Now()).Round(time.Millisecond)
		st := rack.Node(0).RT.Stats()
		if repl := rack.Node(0).Repl; repl != nil {
			fmt.Fprintf(stdout, "  t=%-8v %s repl{%s}\n", now, st, repl.Stats())
		} else {
			fmt.Fprintf(stdout, "  t=%-8v %s\n", now, st)
		}
	}
	rack.TB.Sim.RunUntil(rack.TB.Sim.Now().Add(50 * time.Millisecond))
	fmt.Fprintf(stdout, "\nresult: %v\n", *res)
	if repl := rack.Node(0).Repl; repl != nil {
		for j := 1; j < nodes; j++ {
			slot, ok := rack.PeerSlot(0, j)
			if !ok {
				continue
			}
			if at, dead := repl.PeerDeadAt(slot); dead {
				fmt.Fprintf(stdout, "replica %s: declared dead at t=%v\n",
					repl.PeerName(slot), time.Duration(at).Round(time.Microsecond))
			}
		}
	}
	if fc.Enabled() {
		fmt.Fprintf(stdout, "faults injected: %s\n", rack.TB.Faults.Stats())
	}
	if err := obs.finish(stdout, node0, rack.TraceExport(), rack.TelemetrySnapshot()); err != nil {
		return fail(err)
	}
	rack.Close()
	if invariants {
		rep := ck.Snapshot()
		fmt.Fprintln(stdout, rep)
		if !rep.OK() {
			return 1
		}
	}
	return 0
}

// observability is the run's -trace N and artifact-file flags.
type observability struct {
	traceN int
	files  profile.Files
}

// armed reports whether any flag needs the observability plane.
func (o observability) armed() bool {
	return o.traceN > 0 || o.files != (profile.Files{})
}

// finish prints the -trace tail of node 0's event ring and writes the
// artifact files: the timeline of nodes, the metrics dump of reg and node
// 0's attribution report.
func (o observability) finish(stdout io.Writer, node0 *profile.Profile, nodes []trace.Export, reg *metrics.Registry) error {
	if o.traceN > 0 {
		tail := node0.Events().Tail(o.traceN)
		fmt.Fprintf(stdout, "\ntrace summary: %s\nlast %d events:\n", node0.Events().Summary(), len(tail))
		for _, ev := range tail {
			fmt.Fprintln(stdout, " ", ev)
		}
	}
	rep := node0.Report()
	if err := o.files.Write(nodes, reg, rep, func(what, path string) {
		fmt.Fprintf(stdout, "%s written to %s\n", what, path)
	}); err != nil {
		return err
	}
	if o.files.Profile != "" && len(rep.Bottlenecks) > 0 {
		fmt.Fprintf(stdout, "bottlenecks:\n%s", rep.BottleneckSummary())
	}
	return nil
}
