package cluster

import (
	"bytes"
	"testing"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/trace"
	"lynx/internal/workload"
)

// telemetryRun builds an RF=3 rack with the per-node observability plane
// armed, drives a span-instrumented SET workload at node 0's owned keys
// (Rack.Measure defaults client stamps into node 0's table), and returns the
// rack un-shutdown so callers can inspect spans/tracers/registries.
func telemetryRun(t *testing.T, seed uint64, tel *Telemetry, fc fault.Config) (*Rack, *check.Checker, workload.Result) {
	t.Helper()
	ck := check.New()
	rack, err := Build(Config{
		Nodes: 3, Replicas: 3, Seed: seed, Check: ck, Telemetry: tel, Faults: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := rack.OwnedKeys(0)
	if len(keys) == 0 {
		t.Fatal("node 0 owns no keys")
	}
	res := rack.Measure(workload.Config{
		Proto: workload.UDP, Target: rack.Node(0).Addr(), Payload: 64,
		Body: func(seq uint64, buf []byte) {
			kvstore.AppendSet(buf[:workload.SeqBytes], keys[seq%uint64(len(keys))], 0, []byte("value-0123456789"))
		},
		Clients: 8, Duration: 5 * time.Millisecond, Warmup: time.Millisecond,
		Timeout: 2 * time.Millisecond, Retries: 3,
	})
	return rack, ck, res
}

// TestRackTelemetryReplicationSpans: on a healthy RF=3 rack every parked
// write's span carries the replication stamps in path order — dispatch ≤
// repl-pushed ≤ repl-acked ≤ quorum ≤ forward — and the quorum-wait phase
// telescopes (phases still sum to end-to-end span by span).
func TestRackTelemetryReplicationSpans(t *testing.T) {
	rack, ck, res := telemetryRun(t, 11, &Telemetry{}, fault.Config{})
	if res.Received == 0 {
		t.Fatal("no writes acknowledged")
	}
	spans := rack.Node(0).Spans
	if spans == nil {
		t.Fatal("telemetry armed but node 0 has no span table")
	}
	quorums := 0
	for _, sp := range spans.Spans() {
		phases, complete := sp.Phases()
		if !complete {
			continue
		}
		var sum time.Duration
		for _, d := range phases {
			if d < 0 {
				t.Fatalf("negative phase in %v", phases)
			}
			sum += d
		}
		e2e, _ := sp.Latency(trace.StageClientSend, trace.StageClientRecv)
		if sum != time.Duration(e2e) {
			t.Fatalf("phases sum to %v, end-to-end is %v", sum, time.Duration(e2e))
		}
		q, ok := sp.At(trace.StageQuorum)
		if !ok {
			continue // quorum met before the response drained: no hold, no stamp
		}
		quorums++
		pushed, okP := sp.At(trace.StageReplPushed)
		ackAt, okA := sp.At(trace.StageReplAcked)
		if !okP || !okA {
			t.Fatal("quorum stamped without repl-pushed/repl-acked")
		}
		disp, _ := sp.At(trace.StageDispatch)
		fwd, _ := sp.At(trace.StageForward)
		if !(disp <= pushed && pushed <= ackAt && ackAt <= q && q <= fwd) {
			t.Fatalf("replication stamps out of order: dispatch=%v pushed=%v acked=%v quorum=%v forward=%v",
				disp, pushed, ackAt, q, fwd)
		}
		if phases[trace.PhaseReplication] <= 0 {
			t.Error("parked quorum with zero replication phase")
		}
	}
	if quorums == 0 {
		t.Fatal("no span recorded a quorum hold on an RF=3 rack")
	}
	// The straggler attribution saw the same quorums.
	repl := rack.Node(0).Repl
	var gated uint64
	for i := 0; i < repl.PeerCount(); i++ {
		st := repl.PeerStat(i)
		gated += st.GatedQuorums
		if st.Acks == 0 {
			t.Errorf("peer %s recorded no acks", st.Name)
		}
	}
	if gated == 0 {
		t.Error("no peer recorded a gating ack")
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}

// TestRackTelemetryRetries: RDMA completion errors force replication-path
// retries; stamp ordering and the telescoping invariant must survive them
// (first-write-wins keeps the first delivery's timestamps).
func TestRackTelemetryRetries(t *testing.T) {
	rack, ck, res := telemetryRun(t, 13, &Telemetry{},
		fault.Config{Seed: 13, RDMAErrRate: 0.05})
	if res.Received == 0 {
		t.Fatal("no writes acknowledged under RDMA errors")
	}
	spans := rack.Node(0).Spans
	quorums := 0
	for _, sp := range spans.Spans() {
		if _, ok := sp.At(trace.StageQuorum); ok {
			quorums++
		}
	}
	if quorums == 0 {
		t.Fatal("no quorum spans under RDMA retries")
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}

// TestRackTelemetryWraparound: a span table far smaller than the write count
// wraps mid-quorum — late stamps land on evicted/reused slots — without
// violating any span invariant or crashing the replication path.
func TestRackTelemetryWraparound(t *testing.T) {
	rack, ck, res := telemetryRun(t, 17, &Telemetry{SpanCap: 4}, fault.Config{})
	if res.Received == 0 {
		t.Fatal("no writes acknowledged")
	}
	spans := rack.Node(0).Spans
	if spans.Cap() != 4 {
		t.Fatalf("span cap %d, want 4", spans.Cap())
	}
	if spans.Evicted() == 0 {
		t.Fatal("tiny span table never wrapped")
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}

// TestRackTelemetryDisabledNilSafe: with no telemetry plane the replication
// path runs against nil span tables and tracers — the zero-cost default —
// and every node's observability fields stay nil.
func TestRackTelemetryDisabledNilSafe(t *testing.T) {
	rack, ck, res := telemetryRun(t, 19, nil, fault.Config{})
	if res.Received == 0 {
		t.Fatal("no writes acknowledged")
	}
	for i := 0; i < rack.Nodes(); i++ {
		n := rack.Node(i)
		if n.Prof != nil || n.Spans != nil {
			t.Errorf("node %d carries telemetry state without Telemetry config", i)
		}
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}

// TestRackTelemetryDeterminism: two same-seed instrumented runs produce
// byte-identical rack trace exports and telemetry rollups.
func TestRackTelemetryDeterminism(t *testing.T) {
	run := func() (string, string) {
		rack, _, _ := telemetryRun(t, 23, &Telemetry{}, fault.Config{})
		rack.Close()
		var tr, met bytes.Buffer
		if err := trace.WriteJSON(&tr, rack.TraceExport()...); err != nil {
			t.Fatal(err)
		}
		if err := rack.TelemetrySnapshot().Dump(&met); err != nil {
			t.Fatal(err)
		}
		return tr.String(), met.String()
	}
	tr1, met1 := run()
	tr2, met2 := run()
	if tr1 != tr2 {
		t.Error("rack trace exports diverged across identical runs")
	}
	if met1 != met2 {
		t.Error("rack telemetry rollups diverged across identical runs")
	}
	if tr1 == "" || met1 == "" {
		t.Fatal("empty export")
	}
}

// TestRackPlaneWiring: under Telemetry every node carries its own plane,
// Node.Spans is that plane's span table, and each runtime's events land in
// its own node's ring only.
func TestRackPlaneWiring(t *testing.T) {
	rack, err := Build(Config{Nodes: 2, Replicas: 1, Seed: 3, Telemetry: &Telemetry{}})
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := rack.Node(0), rack.Node(1)
	if n0.Prof == nil || n1.Prof == nil || n0.Prof == n1.Prof {
		t.Fatal("nodes do not carry distinct planes")
	}
	for _, n := range []*Node{n0, n1} {
		if n.Spans == nil || n.Spans != n.Prof.Spans() {
			t.Errorf("%s: Node.Spans is not its plane's span table", n.Name)
		}
	}
	if n0.Prof.Events() == n1.Prof.Events() {
		t.Fatal("nodes share an event ring")
	}
	keys := rack.OwnedKeys(1)
	if len(keys) == 0 {
		t.Fatal("node 1 owns no keys")
	}
	res := rack.Measure(workload.Config{
		Proto: workload.UDP, Target: n1.Addr(), Payload: 64,
		Body: func(seq uint64, buf []byte) {
			kvstore.AppendGet(buf[:workload.SeqBytes], keys[seq%uint64(len(keys))])
		},
		Clients: 2, Duration: time.Millisecond, Warmup: 100 * time.Microsecond,
		Timeout: 2 * time.Millisecond,
	})
	rack.Close()
	if res.Received == 0 {
		t.Fatal("node 1 served nothing")
	}
	if got := n1.Prof.Events().Count(trace.Recv); got == 0 {
		t.Error("node 1's requests left no recv events in its ring")
	}
	if got := n0.Prof.Events().Count(trace.Recv); got != 0 {
		t.Errorf("node 0's ring recorded %d recv events for node 1's traffic", got)
	}
}
