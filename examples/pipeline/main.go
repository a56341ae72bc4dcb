// Accelerator composition (the paper's stated next step, §1): a two-stage
// image pipeline — stage 0 normalizes the image on one GPU, stage 1 runs
// LeNet inference on another — exposed as a single Lynx service. The SNIC
// relays between the accelerators; no host CPU and no extra network round
// trip between stages.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"time"

	"lynx"
	"lynx/internal/apps/lenet"
	"lynx/internal/workload"
)

const payload = workload.SeqBytes + lenet.InputBytes

func main() {
	cluster := lynx.NewCluster()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpuPre := server.AddGPU("gpu-preprocess", lynx.K40m, false, "server1")
	gpuInfer := server.AddGPU("gpu-infer", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")

	srv := cluster.NewServer(bf.Platform(7))
	cfg := lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: payload + 16}
	h1, err := srv.Register(gpuPre, cfg, 2)
	must(err)
	h2, err := srv.Register(gpuInfer, cfg, 2)
	must(err)
	pl, err := srv.AddPipeline(lynx.UDP, 7000, nil, 2, h1, h2)
	must(err)

	// Stage 0: contrast normalization (real pixel math, single-TB kernels).
	q1 := h1.AccelQueues()
	must(gpuPre.LaunchPersistent(cluster.Testbed().Sim, 2, func(tb *lynx.TB) {
		q := q1[tb.Index()]
		for {
			m := q.Recv(tb.Proc())
			out := append([]byte{}, m.Payload...)
			img := out[workload.SeqBytes:]
			lo, hi := byte(255), byte(0)
			for _, px := range img {
				if px < lo {
					lo = px
				}
				if px > hi {
					hi = px
				}
			}
			if hi > lo {
				scale := 255.0 / float64(hi-lo)
				for i, px := range img {
					img[i] = byte(float64(px-lo) * scale)
				}
			}
			tb.Compute(15 * time.Microsecond)
			if q.Send(tb.Proc(), uint16(m.Slot), out) != nil {
				return
			}
		}
	}))

	// Stage 1: the real LeNet forward pass.
	net := lenet.New(42)
	service := cluster.Params().LeNetServiceK40
	q2 := h2.AccelQueues()
	must(gpuInfer.LaunchPersistent(cluster.Testbed().Sim, 2, func(tb *lynx.TB) {
		q := q2[tb.Index()]
		for {
			m := q.Recv(tb.Proc())
			resp := make([]byte, workload.SeqBytes+1)
			copy(resp, m.Payload[:workload.SeqBytes])
			if cls, err := net.Classify(m.Payload[workload.SeqBytes:payload]); err == nil {
				resp[workload.SeqBytes] = byte(cls)
			}
			tb.SpawnChild(service)
			if q.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
				return
			}
		}
	}))
	must(srv.Start())

	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: pl.Addr(), Payload: payload,
		Body: func(seq uint64, buf []byte) {
			img := lenet.RenderDigit(int(seq%10), 0, 0)
			for i := range img { // dim the image so stage 0 has work to undo
				img[i] /= 3
			}
			copy(buf[workload.SeqBytes:], img)
		},
		Clients: 6, Duration: 150 * time.Millisecond, Warmup: 30 * time.Millisecond,
	}, client)

	fmt.Println("Two-GPU pipeline (normalize -> LeNet) behind one Lynx service:")
	fmt.Printf("  %v\n", res)
	fmt.Printf("  SNIC relayed %d stage-to-stage messages — zero CPU, zero extra wire hops\n", pl.Relayed())
	cluster.Close()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
