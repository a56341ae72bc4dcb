// Scaleout (§5.5 / Fig. 8b of the paper): one BlueField SmartNIC drives 12
// K80 GPUs spread over three physical machines — 4 local, 8 behind remote
// hosts' RDMA NICs. Lynx treats remote accelerators exactly like local ones
// (the QPs just carry a network hop), and throughput scales linearly.
//
//	go run ./examples/scaleout
package main

import (
	"fmt"
	"time"

	"lynx"
	"lynx/internal/workload"
)

func run(nLocal, nRemote int) workload.Result {
	cluster := lynx.NewCluster()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	client := cluster.AddClient("client1")
	client2 := cluster.AddClient("client2")

	var gpus []*lynx.GPU
	for i := 0; i < nLocal; i++ {
		gpus = append(gpus, server.AddGPU(fmt.Sprintf("gpu-l%d", i), lynx.K80, false, "server1"))
	}
	var remotes []*lynx.Machine
	for m := 0; m*4 < nRemote; m++ {
		remotes = append(remotes, cluster.NewMachine(fmt.Sprintf("server%d", m+2), 6))
	}
	for i := 0; i < nRemote; i++ {
		gpus = append(gpus, remotes[i/4].AddGPU(fmt.Sprintf("gpu-r%d", i), lynx.K80, false, "server1"))
	}

	srv := cluster.NewServer(bf.Platform(7))
	service := cluster.Params().LeNetServiceK80
	var handles []*lynx.AccelHandle
	for _, g := range gpus {
		h, err := srv.Register(g, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128}, 1)
		must(err)
		handles = append(handles, h)
	}
	svc, err := srv.AddService(lynx.UDP, 7000, nil, 1, handles...)
	must(err)
	for gi, g := range gpus {
		q := handles[gi].AccelQueues()[0]
		must(g.LaunchPersistent(cluster.Testbed().Sim, 1, func(tb *lynx.TB) {
			for {
				m := q.Recv(tb.Proc())
				tb.SpawnChild(service) // emulated LeNet inference
				if q.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		}))
	}
	must(srv.Start())

	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: 64,
		Clients: 3 * len(gpus), Duration: 150 * time.Millisecond, Warmup: 30 * time.Millisecond,
	}, client, client2)
	cluster.Close()
	return res
}

func main() {
	fmt.Println("LeNet service scaling across machines (one BlueField drives everything):")
	configs := []struct {
		local, remote int
		label         string
	}{
		{4, 0, "4 local GPUs"},
		{4, 4, "4 local + 4 remote"},
		{4, 8, "4 local + 8 remote"},
	}
	var base float64
	for _, c := range configs {
		res := run(c.local, c.remote)
		if base == 0 {
			base = res.Throughput()
		}
		fmt.Printf("  %-20s %8.0f req/s  (%.2fx of 4-GPU run, p50 %v)\n",
			c.label, res.Throughput(), res.Throughput()/base, res.Hist.Median())
	}
	fmt.Println("paper: linear scaling — ~13K / ~26K / ~40K req/s; remote adds ~8µs latency")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
