// Face verification (§6.4 of the paper): a multi-tier service. The GPU
// frontend receives [label][image] requests, fetches the reference image for
// the label from a memcached backend *through Lynx client mqueues* (no host
// CPU anywhere on the path), runs a real Local-Binary-Patterns comparison,
// and answers match/no-match.
//
//	go run ./examples/faceverify
package main

import (
	"fmt"
	"time"

	"lynx"
	"lynx/internal/apps/kvstore"
	"lynx/internal/apps/lbp"
	"lynx/internal/workload"
)

const (
	labelBytes = 12
	reqBytes   = workload.SeqBytes + labelBytes + lbp.ImageBytes
	identities = 200
	nTB        = 8 // GPU threadblocks / server mqueues
)

func main() {
	cluster := lynx.NewCluster()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	backend := cluster.NewMachine("dbserver", 6)
	client := cluster.AddClient("client1")

	// --- Backend tier: memcached holding the reference images. ---
	store := kvstore.NewStore()
	for id := uint32(0); id < identities; id++ {
		store.Set(fmt.Sprintf("person-%05d", id), 0, lbp.SynthFace(id, 0))
	}
	backend.NetHost.MustTCPListen(11211).Serve("memcached", func(p *lynx.Proc, msg, out []byte) []byte {
		backend.CPU.ExecOn(p, 2*time.Microsecond)
		return store.AppendServe(out, msg)
	})

	// --- Frontend tier: Lynx on BlueField + GPU persistent kernel. ---
	srv := cluster.NewServer(bf.Platform(7))
	h, err := srv.Register(gpu, lynx.QueueConfig{
		Kind: lynx.ServerQueue, Slots: 8, SlotSize: reqBytes + 96,
	}, 2*nTB)
	must(err)
	svc, err := srv.AddService(lynx.UDP, 7000, nil, nTB, h)
	must(err)
	clientIdx := make([]int, nTB)
	for i := range clientIdx {
		cb, err := srv.AddClientQueue(h, lynx.Addr{Host: "dbserver", Port: 11211})
		must(err)
		clientIdx[i] = cb.QueueIndex()
	}
	queues := h.AccelQueues()
	kernelTime := cluster.Params().FaceVerifyService
	// Reference histograms are computed once per identity and cached.
	gallery := lbp.NewGallery()
	matches, mismatches := 0, 0
	must(gpu.LaunchPersistent(cluster.Testbed().Sim, nTB, func(tb *lynx.TB) {
		serverQ := queues[tb.Index()]
		dbQ := queues[clientIdx[tb.Index()]]
		var get []byte // the database request, reused: Send copies it
		for {
			m := serverQ.Recv(tb.Proc())
			if len(m.Payload) < reqBytes {
				continue
			}
			label := string(m.Payload[workload.SeqBytes : workload.SeqBytes+labelBytes])
			// Fetch the reference image from memcached via the client
			// mqueue — straight from the GPU, through the SNIC.
			get = kvstore.AppendGet(get[:0], label)
			if dbQ.Send(tb.Proc(), 0, get) != nil {
				return
			}
			reply := dbQ.Recv(tb.Proc())
			ref, ok, err := kvstore.DecodeValue(reply.Payload)
			if err != nil || !ok {
				continue
			}
			probe := m.Payload[workload.SeqBytes+labelBytes : reqBytes]
			same, _, err := gallery.Verify(probe, ref, lbp.DefaultThreshold) // real LBP
			tb.Compute(kernelTime)
			resp := make([]byte, workload.SeqBytes+1)
			copy(resp, m.Payload[:workload.SeqBytes])
			if err == nil && same {
				resp[workload.SeqBytes] = 1
				matches++
			} else {
				mismatches++
			}
			if serverQ.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
				return
			}
		}
	}))
	must(srv.Start())

	// --- Clients: half genuine probes, half impostors. ---
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: reqBytes,
		Body: func(seq uint64, buf []byte) {
			claimed := uint32(seq % identities)
			actual := claimed
			if seq%2 == 1 {
				actual = (claimed + 7) % identities // impostor
			}
			copy(buf[workload.SeqBytes:], fmt.Sprintf("person-%05d", claimed))
			copy(buf[workload.SeqBytes+labelBytes:], lbp.SynthFace(actual, uint32(seq)))
		},
		Clients: 2 * nTB, Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond,
	}, client)

	fmt.Println("Face verification: GPU frontend + memcached backend via client mqueues")
	fmt.Printf("  load: %v\n", res)
	fmt.Printf("  verified genuine: %d, rejected impostors/mismatches: %d\n", matches, mismatches)
	cluster.Close()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
