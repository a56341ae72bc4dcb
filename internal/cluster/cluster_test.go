package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

// ackedWrite is one client write whose STORED response arrived.
type ackedWrite struct {
	key   string
	value string
}

// driveWrites spawns a closed-loop client writing each (key, value) pair once
// with bounded same-id retransmits, recording the acknowledged subset. The
// returned slice is populated as the simulation runs.
func driveWrites(s *sim.Sim, client *netstack.Host, target netstack.Addr, port uint16, writes []ackedWrite, gap time.Duration, acked *[]ackedWrite) *bool {
	done := new(bool)
	sock := client.MustUDPBind(port)
	s.Spawn(fmt.Sprintf("chaos-client:%d", port), func(p *sim.Proc) {
		for i, w := range writes {
			id := uint64(port)<<32 | uint64(i+1)
			payload := kvstore.AppendSet(binary.LittleEndian.AppendUint64(nil, id), w.key, 0, []byte(w.value))
			ok := false
			timeout := 2 * time.Millisecond
			for attempt := 0; attempt < 4 && !ok; attempt++ {
				sock.SendTo(target, payload)
				deadline := p.Now().Add(timeout)
				for !ok {
					left := deadline.Sub(p.Now())
					if left <= 0 {
						break
					}
					dg, got, _ := sock.RecvTimeout(p, left)
					if !got {
						break
					}
					if len(dg.Payload) >= workload.SeqBytes &&
						binary.LittleEndian.Uint64(dg.Payload) == id &&
						bytes.Contains(dg.Payload[workload.SeqBytes:], []byte("STORED")) {
						ok = true
					}
				}
				timeout *= 2
			}
			if ok {
				*acked = append(*acked, w)
			}
			p.Sleep(gap)
		}
		*done = true
	})
	return done
}

func uniqueWrites(keys []string, n int) []ackedWrite {
	writes := make([]ackedWrite, 0, n)
	for i := 0; i < n; i++ {
		writes = append(writes, ackedWrite{
			key:   keys[i%len(keys)],
			value: fmt.Sprintf("chaos-value-%04d", i),
		})
	}
	return writes
}

// expectValue asserts the store holds exactly value under key.
func expectValue(t *testing.T, where string, store *kvstore.Store, key, value string) {
	t.Helper()
	v, _, ok := store.Get(key)
	if !ok {
		t.Errorf("%s: acknowledged write %q missing", where, key)
		return
	}
	if string(v) != value {
		t.Errorf("%s: key %q = %q, want acknowledged %q", where, key, v, value)
	}
}

// TestRackReplicatesWrites: a healthy RF=3 rack replicates every acknowledged
// node-0 write to both peers, with request conservation green.
func TestRackReplicatesWrites(t *testing.T) {
	ck := check.New()
	rack, err := Build(Config{Nodes: 3, Replicas: 3, Seed: 11, Check: ck})
	if err != nil {
		t.Fatal(err)
	}
	keys := rack.OwnedKeys(0)
	if len(keys) == 0 {
		t.Fatal("node 0 owns no keys")
	}
	writes := uniqueWrites(keys, 40)
	var acked []ackedWrite
	done := driveWrites(rack.TB.Sim, rack.Clients[0], rack.Node(0).Addr(), 41000,
		writes, 100*time.Microsecond, &acked)
	rack.TB.Sim.RunUntil(rack.TB.Sim.Now().Add(100 * time.Millisecond))
	if !*done {
		t.Fatal("client did not finish")
	}
	if len(acked) != len(writes) {
		t.Fatalf("only %d/%d writes acknowledged on a healthy rack", len(acked), len(writes))
	}
	// Every key's replica set is all three nodes at RF=3; an acknowledged
	// write must be present everywhere (later writes to the same key win).
	latest := map[string]string{}
	for _, w := range acked {
		latest[w.key] = w.value
	}
	for key, value := range latest {
		for _, ni := range rack.ReplicaSet(key) {
			expectValue(t, fmt.Sprintf("node %d", ni), rack.Node(ni).Store, key, value)
		}
	}
	st := rack.Node(0).Repl.Stats()
	if st.Writes == 0 || st.Records == 0 || st.Acks == 0 {
		t.Errorf("replication saw no traffic: %v", st)
	}
	if st.PeerFailovers != 0 {
		t.Errorf("unexpected failovers on a healthy rack: %v", st)
	}
	rack.TB.Sim.Shutdown()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}

// TestRackBatchedParkedRepliesChargeStackOnce: a response the replicator
// parks is charged the TX stack once, by the pump on release, so a batched
// RF=2 SET costs the primary's frontend as many exec charges per response
// as an unbatched one.
func TestRackBatchedParkedRepliesChargeStackOnce(t *testing.T) {
	perResponse := func(bc model.BatchConfig) float64 {
		p := model.Default()
		p.Batch = bc
		rack, err := Build(Config{Nodes: 2, Replicas: 2, Seed: 9, Params: &p})
		if err != nil {
			t.Fatal(err)
		}
		defer rack.Close()
		writes := uniqueWrites(rack.OwnedKeys(0), 40)
		var acked []ackedWrite
		done := driveWrites(rack.TB.Sim, rack.Clients[0], rack.Node(0).Addr(), 43000,
			writes, 100*time.Microsecond, &acked)
		rack.TB.Sim.RunUntil(rack.TB.Sim.Now().Add(100 * time.Millisecond))
		if !*done || len(acked) != len(writes) {
			t.Fatalf("batch %+v: %d/%d writes acknowledged", bc, len(acked), len(writes))
		}
		if held := rack.Node(0).Repl.Stats().Held; held == 0 {
			t.Fatalf("batch %+v: no response was parked for peer acks", bc)
		}
		rt := rack.Node(0).RT
		return float64(rt.ExecCalls()) / float64(rt.Stats().Responded)
	}
	unit := perResponse(model.BatchConfig{})
	batched := perResponse(model.BatchConfig{Doorbell: 1, CQDrain: 2, Quantum: 1})
	if batched != unit {
		t.Fatalf("exec calls per response: batched %.3f, unbatched %.3f", batched, unit)
	}
}

// chaosRun executes one seeded replica-kill scenario: RF=3, node 1's GPU
// frozen mid-run by the fault plane, writes targeting node 0. It returns the
// acknowledged writes, the rack (shut down, invariants checked), and the
// failover latency of the killed peer.
func chaosRun(t *testing.T, seed uint64, killAt time.Duration) ([]ackedWrite, *Rack, time.Duration) {
	t.Helper()
	ck := check.New()
	rack, err := Build(Config{
		Nodes: 3, Replicas: 3, Seed: seed, Check: ck,
		Faults: fault.Config{
			Seed:   seed,
			Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1, At: killAt, For: time.Hour}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := rack.OwnedKeys(0)
	writes := uniqueWrites(keys, 60)
	var acked []ackedWrite
	done := driveWrites(rack.TB.Sim, rack.Clients[0], rack.Node(0).Addr(), 42000,
		writes, 250*time.Microsecond, &acked)
	rack.TB.Sim.RunUntil(rack.TB.Sim.Now().Add(200 * time.Millisecond))
	if !*done {
		t.Fatal("client did not finish")
	}

	repl := rack.Node(0).Repl
	slot, ok := rack.PeerSlot(0, 1)
	if !ok {
		t.Fatal("node 1 is not a peer of node 0")
	}
	if !repl.PeerDead(slot) {
		t.Fatalf("peer gpu1 not declared dead after stall at %v (stats %v)", killAt, repl.Stats())
	}
	lag := repl.ReplicationLag(slot, killAt)

	// The acceptance bar: zero lost acknowledged writes. Every acknowledged
	// write must be readable on the primary and on the surviving replica.
	latest := map[string]string{}
	for _, w := range acked {
		latest[w.key] = w.value
	}
	for key, value := range latest {
		for _, ni := range rack.ReplicaSet(key) {
			if ni == 1 {
				continue // the killed node
			}
			expectValue(t, fmt.Sprintf("node %d (survivor)", ni), rack.Node(ni).Store, key, value)
		}
	}

	rack.TB.Sim.Shutdown()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
	return acked, rack, lag
}

// TestRackChaosReplicaKill: seeded replica-kills at randomized virtual times;
// every acknowledged write survives failover and conservation stays green.
func TestRackChaosReplicaKill(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc4a05, 1))
	for i := 0; i < 3; i++ {
		seed := uint64(100 + i)
		killAt := 2*time.Millisecond + time.Duration(rng.IntN(8000))*time.Microsecond
		t.Run(fmt.Sprintf("seed=%d killAt=%v", seed, killAt), func(t *testing.T) {
			acked, _, lag := chaosRun(t, seed, killAt)
			if len(acked) == 0 {
				t.Fatal("no writes acknowledged")
			}
			if lag <= 0 || lag > 50*time.Millisecond {
				t.Errorf("failover latency %v outside (0, 50ms]", lag)
			}
		})
	}
}

// TestRackChaosDeterminism: the same seeded kill scenario replays exactly.
func TestRackChaosDeterminism(t *testing.T) {
	const killAt = 5 * time.Millisecond
	acked1, rack1, lag1 := chaosRun(t, 77, killAt)
	acked2, rack2, lag2 := chaosRun(t, 77, killAt)
	if len(acked1) != len(acked2) {
		t.Fatalf("acked counts diverged: %d vs %d", len(acked1), len(acked2))
	}
	for i := range acked1 {
		if acked1[i] != acked2[i] {
			t.Fatalf("acked[%d] diverged: %v vs %v", i, acked1[i], acked2[i])
		}
	}
	if lag1 != lag2 {
		t.Errorf("failover latency diverged: %v vs %v", lag1, lag2)
	}
	for i := 0; i < rack1.Nodes(); i++ {
		if rack1.Node(i).Repl == nil {
			continue
		}
		s1, s2 := rack1.Node(i).Repl.Stats().String(), rack2.Node(i).Repl.Stats().String()
		if s1 != s2 {
			t.Errorf("node %d replication stats diverged:\n  %s\n  %s", i, s1, s2)
		}
	}
}

// TestRackRF1HasNoReplicationLayer: replication factor 1 must leave every
// node's replicator nil — the hooks stay dormant and each node serves as a
// plain Lynx KV server (the rf1-rack path golden pins one such node's exact
// event sequence).
func TestRackRF1HasNoReplicationLayer(t *testing.T) {
	rack, err := Build(Config{Nodes: 2, Replicas: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rack.Nodes(); i++ {
		if rack.Node(i).Repl != nil {
			t.Errorf("node %d has a replicator at RF=1", i)
		}
	}
	rack.TB.Sim.Shutdown()
}

// TestRackShardingSpreadsOwnership: every preloaded key has an owner, replica
// sets are distinct and primary-first, and no node owns everything.
func TestRackShardingSpreadsOwnership(t *testing.T) {
	rack, err := Build(Config{Nodes: 3, Replicas: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for i := 0; i < rack.Nodes(); i++ {
		n := len(rack.OwnedKeys(i))
		if n == 0 {
			t.Errorf("node %d owns no keys", i)
		}
		owned += n
	}
	if owned != rack.Keys() {
		t.Errorf("ownership covers %d of %d keys", owned, rack.Keys())
	}
	for _, key := range []string{"key-000", "key-101", "key-511"} {
		set := rack.ReplicaSet(key)
		if len(set) != 2 {
			t.Fatalf("replica set of %q has %d members", key, len(set))
		}
		if set[0] == set[1] {
			t.Errorf("replica set of %q repeats node %d", key, set[0])
		}
		if set[0] != rack.PrimaryFor(key) {
			t.Errorf("replica set of %q does not lead with the primary", key)
		}
	}
	rack.TB.Sim.Shutdown()
}
