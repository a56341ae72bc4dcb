package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

// rackWrites builds a checked 3-node RF=3 rack under faults and has one
// client write n distinct values to node 0's keys, one at a time, retrying
// each on a timeout. It runs the rack for 100ms of virtual time and returns
// it (not shut down) with the count of STORED replies.
func rackWrites(t *testing.T, faults fault.Config, n int) (*cluster.Rack, *check.Checker, []string, int) {
	t.Helper()
	ck := check.New()
	rack, err := cluster.Build(cluster.Config{Nodes: 3, Replicas: 3, Seed: 5, Check: ck, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	keys := rack.OwnedKeys(0)
	if len(keys) == 0 {
		t.Fatal("node 0 owns no keys")
	}
	s := rack.TB.Sim
	sock := rack.Clients[0].MustUDPBind(9100)
	stored := 0
	s.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			id := uint64(i + 1)
			req := kvstore.AppendSet(binary.LittleEndian.AppendUint64(nil, id),
				keys[i%len(keys)], 0, []byte(fmt.Sprintf("repl-value-%04d", i)))
			for attempt, ok := 0, false; attempt < 4 && !ok; attempt++ {
				sock.SendTo(rack.Node(0).Addr(), req)
				for !ok {
					dg, got, _ := sock.RecvTimeout(p, 2*time.Millisecond<<attempt)
					if !got {
						break
					}
					ok = binary.LittleEndian.Uint64(dg.Payload) == id &&
						bytes.Contains(dg.Payload[workload.SeqBytes:], []byte("STORED"))
					sock.Release(dg.Payload)
				}
				if ok {
					stored++
				}
			}
			p.Sleep(200 * time.Microsecond)
		}
	})
	s.RunUntil(s.Now().Add(100 * time.Millisecond))
	return rack, ck, keys, stored
}

// expectReplicated checks that every node in nodes holds the last value
// written to each key.
func expectReplicated(t *testing.T, rack *cluster.Rack, keys []string, n int, nodes ...int) {
	t.Helper()
	latest := map[string]string{}
	for i := 0; i < n; i++ {
		latest[keys[i%len(keys)]] = fmt.Sprintf("repl-value-%04d", i)
	}
	for _, ni := range nodes {
		for key, want := range latest {
			if v, _, ok := rack.Node(ni).Store.Get(key); !ok || string(v) != want {
				t.Errorf("node %d: key %q = %q (present %v), want %q", ni, key, v, ok, want)
			}
		}
	}
}

// A healthy RF=3 primary sends every write to both peers, parks each reply
// until both acknowledge, and releases it; the peers' stores converge.
func TestReplicatorQuorumWrites(t *testing.T) {
	const n = 60
	rack, ck, keys, stored := rackWrites(t, fault.Config{}, n)
	if stored != n {
		t.Fatalf("%d/%d writes stored on a healthy rack", stored, n)
	}
	expectReplicated(t, rack, keys, n, 0, 1, 2)
	repl := rack.Node(0).Repl
	st := repl.Stats()
	if st.Writes != n || st.Records != 2*n || st.Acks != 2*n {
		t.Errorf("stats %v, want %d writes and %d records and acks", st, n, 2*n)
	}
	if st.Held != n || st.Released != n || repl.HeldResponses() != 0 || st.PeerFailovers != 0 {
		t.Errorf("stats %v with %d still held, want %d held and released, none left, no failover",
			st, repl.HeldResponses(), n)
	}
	if !strings.Contains(st.String(), fmt.Sprintf("writes=%d records=%d", n, 2*n)) {
		t.Errorf("stats line %q", st)
	}
	if repl.PeerCount() != 2 {
		t.Fatalf("%d peers, want 2", repl.PeerCount())
	}
	var gated uint64
	for i := 0; i < repl.PeerCount(); i++ {
		ps := repl.PeerStat(i)
		if ps.Name != repl.PeerName(i) || ps.Acks != n || ps.AckLatency.Count() != n {
			t.Errorf("peer %d: %+v, want name %q and %d acks", i, ps, repl.PeerName(i), n)
		}
		if repl.PeerDead(i) || repl.ReplicationLag(i, 0) != 0 {
			t.Errorf("peer %d declared dead on a healthy rack", i)
		}
		if _, dead := repl.PeerDeadAt(i); dead {
			t.Errorf("peer %d has a death time on a healthy rack", i)
		}
		gated += ps.GatedQuorums
	}
	if gated != n {
		t.Errorf("%d gated quorums over both peers, want one per write (%d)", gated, n)
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}

// A peer whose GPU stalls for good is declared dead, once, within the
// watchdog's bound; parked replies waiting on it are released, later writes
// need only the survivor, and no stored write is lost on it.
func TestReplicatorDeclaresStalledPeerDead(t *testing.T) {
	const n, stallAt = 60, 4 * time.Millisecond
	rack, ck, keys, stored := rackWrites(t, fault.Config{
		Seed:   5,
		Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1, At: stallAt, For: time.Hour}},
	}, n)
	if stored != n {
		t.Fatalf("%d/%d writes stored with one replica stalled", stored, n)
	}
	expectReplicated(t, rack, keys, n, 0, 2)
	repl := rack.Node(0).Repl
	dead, _ := rack.PeerSlot(0, 1)
	live, _ := rack.PeerSlot(0, 2)
	at, ok := repl.PeerDeadAt(dead)
	if !repl.PeerDead(dead) || !ok || time.Duration(at) < stallAt {
		t.Fatalf("stalled peer: dead %v at %v, want dead after %v", repl.PeerDead(dead), at, stallAt)
	}
	if lag := repl.ReplicationLag(dead, stallAt); lag <= 0 || lag > 50*time.Millisecond {
		t.Errorf("failover latency %v outside (0, 50ms]", lag)
	}
	if repl.PeerDead(live) {
		t.Error("the live peer was declared dead")
	}
	st := repl.Stats()
	if st.PeerFailovers != 1 || st.Released != st.Held || repl.HeldResponses() != 0 {
		t.Errorf("stats %v with %d held: want one failover and every parked reply released", st, repl.HeldResponses())
	}
	if acks := repl.PeerStat(live).Acks; acks != n {
		t.Errorf("live peer acked %d of %d writes", acks, n)
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}

// With a dispatcher quantum above one, a loaded service dispatches ready
// datagrams in batches: every request is still answered, and the serialized
// stack time per response falls, since each quantum pays the fixed share once.
func TestBatchedDispatchAmortizesSerialSection(t *testing.T) {
	serialPerResponse := func(bc model.BatchConfig) time.Duration {
		p := model.Default()
		p.Batch = bc
		b := newBedWith(t, 3, p)
		rt := core.NewRuntime(b.bf.Platform(7))
		h, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 4)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := rt.AddService(core.UDP, 7000, nil, 4, h)
		if err != nil {
			t.Fatal(err)
		}
		startEchoTBs(t, b, h, 0)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		res := workloadRun(b, workloadNew(b, workloadCfg(svc.Addr(), 64, 5*time.Millisecond)))
		b.tb.Sim.Shutdown()
		st := rt.Stats()
		if res.Received == 0 || res.Lost != 0 || st.Responded == 0 {
			t.Fatalf("batch %+v: %d received, %d lost, %d responded", bc, res.Received, res.Lost, st.Responded)
		}
		return rt.SerialBusy() / time.Duration(st.Responded)
	}
	unit := serialPerResponse(model.BatchConfig{})
	batched := serialPerResponse(model.DefaultBatchConfig())
	if batched >= unit {
		t.Fatalf("serialized time per response: batched %v, unbatched %v", batched, unit)
	}
}
