package lynx_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"lynx"
	"lynx/internal/apps/kvstore"
	"lynx/internal/cluster"
	"lynx/internal/workload"
)

// TestRackReplicaKillPublicAPI is the public-facade chaos scenario: an RF=3
// rack with invariants armed, node 1's accelerator frozen mid-run through
// the fault plane, a write workload against node 0. Every acknowledged write
// must survive on the surviving replicas, the dead peer must be detected,
// and request conservation must stay green.
func TestRackReplicaKillPublicAPI(t *testing.T) {
	const killAt = 6 * time.Millisecond
	ck := lynx.NewInvariantChecker()
	rack, err := lynx.BuildRack(lynx.RackConfig{
		Nodes: 3, Replicas: 3, Seed: 9, Check: ck,
		Faults: lynx.FaultConfig{
			Seed:   9,
			Stalls: []lynx.FaultStall{{Accel: "gpu1", Queue: -1, At: killAt, For: time.Hour}},
		},
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
			kvstore.AppendSet(buf[:workload.SeqBytes], keys[seq%uint64(len(keys))], 0, []byte("public-api-value"))
		},
		Clients: 4, Duration: 20 * time.Millisecond, Warmup: 2 * time.Millisecond,
		Timeout: 2 * time.Millisecond, Retries: 3,
	})
	if res.Received == 0 {
		t.Fatal("no writes acknowledged")
	}
	repl := rack.Node(0).Repl
	if repl == nil {
		t.Fatal("RF=3 rack has no replication layer on node 0")
	}
	slot, ok := rack.PeerSlot(0, 1)
	if !ok {
		t.Fatal("node 1 is not a peer of node 0")
	}
	if !repl.PeerDead(slot) {
		t.Fatalf("killed peer not detected (stats %v)", repl.Stats())
	}
	if lag := repl.ReplicationLag(slot, killAt); lag <= 0 || lag > 50*time.Millisecond {
		t.Errorf("failover latency %v outside (0, 50ms]", lag)
	}
	// Zero lost acknowledged writes: the workload's acknowledged SETs all
	// wrote the same value, so it must be readable under every key any
	// surviving replica holds a newer-than-preload entry for.
	for _, ni := range []int{0, 2} {
		store := rack.Node(ni).Store
		found := 0
		for _, key := range keys {
			if v, _, ok := store.Get(key); ok && string(v) == "public-api-value" {
				found++
			}
		}
		if found == 0 {
			t.Errorf("node %d holds no acknowledged writes", ni)
		}
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("invariants: %s", rep)
	}
}

// TestRackShardMapPublicAPI: a rack built through the facade spreads shard
// ownership over all of its members.
func TestRackShardMapPublicAPI(t *testing.T) {
	rack, err := lynx.BuildRack(lynx.RackConfig{Nodes: 3, Replicas: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rack.Close()
	owned := map[string]int{}
	for s := 0; s < cluster.DefaultShards; s++ {
		owner, ok := rack.Map.Owner(s)
		if !ok {
			t.Fatalf("shard %d unowned", s)
		}
		owned[owner]++
	}
	if len(owned) != 3 {
		t.Errorf("ownership concentrated on %d of 3 members: %v", len(owned), owned)
	}
}

// TestRackDeterminismPublicAPI replays the same seeded rack twice and
// requires identical results through the public facade.
func TestRackDeterminismPublicAPI(t *testing.T) {
	run := func() (string, string) {
		rack, err := lynx.BuildRack(lynx.RackConfig{Nodes: 3, Replicas: 2, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		keys := rack.OwnedKeys(0)
		res := rack.Measure(workload.Config{
			Proto: workload.UDP, Target: rack.Node(0).Addr(), Payload: 64,
			Body: func(seq uint64, buf []byte) {
				kvstore.AppendSet(buf[:workload.SeqBytes], keys[seq%uint64(len(keys))], 0, []byte("determinism-value"))
			},
			Clients: 4, Duration: 5 * time.Millisecond, Warmup: time.Millisecond,
		})
		stats := ""
		if repl := rack.Node(0).Repl; repl != nil {
			stats = repl.Stats().String()
		}
		rack.Close()
		return fmt.Sprintf("sent=%d received=%d p99=%v", res.Sent, res.Received, res.Hist.P99()), stats
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 || s1 != s2 {
		t.Errorf("seeded rack runs diverged:\n  %s | %s\n  %s | %s", r1, s1, r2, s2)
	}
}

// TestRackWriteClassifier pins the wire-format contract the rack's dispatch
// classifier relies on: the 8-byte id header followed by a memcached ASCII
// set/delete, whose key bytes shard identically to the string form.
func TestRackWriteClassifier(t *testing.T) {
	m := cluster.NewShardMap(64)
	payload := kvstore.AppendSet(binary.LittleEndian.AppendUint64(nil, 7), "key-042", 0, []byte("v"))
	body := payload[workload.SeqBytes:]
	if !bytes.HasPrefix(body, []byte("set key-042 ")) {
		t.Fatalf("unexpected set encoding: %q", body)
	}
	if got, want := m.ShardOfBytes([]byte("key-042")), m.ShardOf("key-042"); got != want {
		t.Errorf("byte and string shard hashes disagree: %d vs %d", got, want)
	}
}
