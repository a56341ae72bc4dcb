package cluster

import (
	"encoding/binary"
	"testing"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/netstack"
)

// quorumRig is a warm 3-node RF=3 rack driven one SET at a time from outside
// any simulated process: a client socket sends a write for a node-0 key, the
// primary serves it, replicates it to both peers over one-sided RDMA and
// parks the reply until both acknowledge.
type quorumRig struct {
	rack *Rack
	cli  *netstack.UDPSocket
	req  []byte
	id   uint64
}

func newQuorumRig(tb testing.TB) *quorumRig {
	rack, err := Build(Config{Nodes: 3, Replicas: 3, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	r := &quorumRig{rack: rack, cli: rack.Clients[0].MustUDPBind(9000)}
	r.req = kvstore.AppendSet(make([]byte, 8), rack.OwnedKeys(0)[0], 0, []byte("value-0123456789"))
	// Warm every pool on the path, the replicator's free lists included.
	for i := 0; i < 500; i++ {
		r.write(tb)
	}
	return r
}

// write sends one SET under a fresh id and runs the simulation until its
// STORED reply is back at the client, which releases it.
func (r *quorumRig) write(tb testing.TB) {
	s := r.rack.TB.Sim
	r.id++
	binary.LittleEndian.PutUint64(r.req, r.id)
	r.cli.SendTo(r.rack.Node(0).Addr(), r.req)
	deadline := s.Now().Add(time.Millisecond)
	for {
		if dg, ok := r.cli.TryRecv(); ok {
			if binary.LittleEndian.Uint64(dg.Payload) != r.id {
				tb.Fatalf("reply to write %d answers %d", r.id, binary.LittleEndian.Uint64(dg.Payload))
			}
			r.cli.Release(dg.Payload)
			return
		}
		if s.Now() >= deadline {
			tb.Fatal("no reply within 1ms")
		}
		s.RunUntil(s.Now().Add(time.Microsecond))
	}
}

// BenchmarkQuorumWrite is the cluster layer's benchmark: one warm RF=3
// quorum SET, client → primary SNIC → GPU, replicated to two peer GPUs, and
// its parked reply released back to the client. events/op counts the
// simulator events one write costs.
func BenchmarkQuorumWrite(b *testing.B) {
	r := newQuorumRig(b)
	defer r.rack.Close()
	s := r.rack.TB.Sim
	start := s.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.write(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Executed()-start)/float64(b.N), "events/op")
}

// TestQuorumWriteAllocs pins the allocation-free replicated write: with
// every pool warm, a quorum SET whose client releases its reply allocates
// nothing.
func TestQuorumWriteAllocs(t *testing.T) {
	r := newQuorumRig(t)
	defer r.rack.Close()
	if n := testing.AllocsPerRun(200, func() { r.write(t) }); n != 0 {
		t.Fatalf("one quorum write allocates %.2f objects, want 0", n)
	}
}
