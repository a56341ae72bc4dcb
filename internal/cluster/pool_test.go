package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

// TestParkedRepliesReachTheirOwnClients: the replicator recycles its
// per-write records and the buffers of replication records and parked
// responses, so a buffer freed too early would hand one client another's
// reply or replicate the wrong bytes. An RF=3 rack with checks armed serves
// concurrent writers, so several responses are parked at once; one writer
// sends every request twice (a client retransmit of a tracked write), and
// node 1's GPU freezes mid-run, so its peer dies with records queued. Every
// reply must be exactly its own request's id and STORED, every survivor must
// hold each writer's last acknowledged value, and no response stays parked.
func TestParkedRepliesReachTheirOwnClients(t *testing.T) {
	const (
		writers   = 6
		perWriter = 30
		dupWriter = 0
	)
	ck := check.New()
	rack, err := Build(Config{
		Nodes: 3, Replicas: 3, Seed: 21, Check: ck,
		Faults: fault.Config{
			Seed:   21,
			Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1, At: 3 * time.Millisecond, For: time.Hour}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rack.TB.Sim
	repl := rack.Node(0).Repl
	keys := rack.OwnedKeys(0)
	stored := []byte("STORED\r\n")

	type write struct{ key, value string }
	acked := make([][]write, writers)
	done := 0
	for w := 0; w < writers; w++ {
		port := uint16(44000 + w)
		sock := rack.Clients[w%len(rack.Clients)].MustUDPBind(port)
		s.Spawn(fmt.Sprintf("pool-writer%d", w), func(p *sim.Proc) {
			defer func() { done++ }()
			for i := 0; i < perWriter; i++ {
				id := uint64(port)<<32 | uint64(i+1)
				wr := write{keys[(w+i*writers)%len(keys)], fmt.Sprintf("w%d-value-%04d", w, i)}
				req := kvstore.AppendSet(binary.LittleEndian.AppendUint64(nil, id), wr.key, 0, []byte(wr.value))
				want := append(binary.LittleEndian.AppendUint64(nil, id), stored...)
				ok := false
				timeout := 2 * time.Millisecond
				for attempt := 0; attempt < 4 && !ok; attempt++ {
					sock.SendTo(rack.Node(0).Addr(), req)
					if w == dupWriter {
						sock.SendTo(rack.Node(0).Addr(), req)
					}
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
						switch {
						case bytes.Equal(dg.Payload, want):
							ok = true
						case len(dg.Payload) >= workload.SeqBytes &&
							binary.LittleEndian.Uint64(dg.Payload)>>32 == uint64(port) &&
							bytes.Equal(dg.Payload[workload.SeqBytes:], stored):
							// A late copy of one of this writer's earlier replies.
						default:
							t.Errorf("writer %d, write %d: reply %q, want %q", w, i, dg.Payload, want)
						}
						sock.Release(dg.Payload)
					}
					timeout *= 2
				}
				if ok {
					acked[w] = append(acked[w], wr)
				}
			}
		})
	}
	maxHeld := uint64(0)
	s.Spawn("pool-held-sampler", func(p *sim.Proc) {
		for done < writers {
			maxHeld = max(maxHeld, repl.HeldResponses())
			p.Sleep(5 * time.Microsecond)
		}
	})
	s.RunUntil(s.Now().Add(300 * time.Millisecond))

	if done != writers {
		t.Fatalf("%d of %d writers finished", done, writers)
	}
	slot, _ := rack.PeerSlot(0, 1)
	if !repl.PeerDead(slot) {
		t.Fatalf("peer gpu1 not declared dead (stats %v)", repl.Stats())
	}
	if maxHeld < 2 {
		t.Errorf("at most %d response parked at once, want several", maxHeld)
	}
	if held := repl.HeldResponses(); held != 0 {
		t.Errorf("%d responses still parked after every writer finished", held)
	}
	for w, ws := range acked {
		if len(ws) < perWriter/2 {
			t.Errorf("writer %d: only %d of %d writes acknowledged", w, len(ws), perWriter)
		}
		if w == dupWriter {
			continue // a duplicate may be applied after a later write
		}
		latest := map[string]string{}
		for _, wr := range ws {
			latest[wr.key] = wr.value
		}
		for key, value := range latest {
			for _, ni := range rack.ReplicaSet(key) {
				if ni != 1 {
					expectValue(t, fmt.Sprintf("writer %d, node %d", w, ni), rack.Node(ni).Store, key, value)
				}
			}
		}
	}
	s.Shutdown()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Errorf("%s", rep)
	}
}
