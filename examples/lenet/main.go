// LeNet model serving (§6.3 of the paper): a digit-recognition service
// implemented entirely on the GPU — a persistent kernel polls its mqueue,
// runs a real LeNet-5 forward pass (via dynamic parallelism in the timing
// model), and replies with the class — compared against the traditional
// host-centric design on the same workload.
//
//	go run ./examples/lenet
package main

import (
	"fmt"
	"time"

	"lynx"
	"lynx/internal/apps/lenet"
	"lynx/internal/hostcentric"
	"lynx/internal/workload"
)

const payload = workload.SeqBytes + lenet.InputBytes

func classify(net *lenet.Network, req []byte) []byte {
	resp := make([]byte, workload.SeqBytes+1)
	copy(resp, req[:workload.SeqBytes])
	if cls, err := net.Classify(req[workload.SeqBytes:payload]); err == nil {
		resp[workload.SeqBytes] = byte(cls)
	}
	return resp
}

func body(seq uint64, buf []byte) {
	copy(buf[workload.SeqBytes:], lenet.RenderDigit(int(seq%10), int(seq%5)-2, 0))
}

func runLynx(net *lenet.Network) workload.Result {
	cluster := lynx.NewCluster()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")

	srv := cluster.NewServer(bf.Platform(7))
	h, err := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: payload + 16}, 1)
	must(err)
	svc, err := srv.AddService(lynx.UDP, 7000, nil, 1, h)
	must(err)
	q := h.AccelQueues()[0]
	service := cluster.Params().LeNetServiceK40
	must(gpu.LaunchPersistent(cluster.Testbed().Sim, 1, func(tb *lynx.TB) {
		for {
			m := q.Recv(tb.Proc())
			resp := classify(net, m.Payload) // the real forward pass
			tb.SpawnChild(service)           // GPU time via dynamic parallelism
			if q.Send(tb.Proc(), uint16(m.Slot), resp) != nil {
				return
			}
		}
	}))
	must(srv.Start())
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: svc.Addr(), Payload: payload, Body: body,
		Clients: 3, Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond,
	}, client)
	cluster.Close()
	return res
}

func runHostCentric(net *lenet.Network) workload.Result {
	cluster := lynx.NewCluster()
	server := cluster.NewMachine("server1", 6)
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")
	p := cluster.Params()
	sv := hostcentric.New(cluster.Testbed().Sim, p, server.CPU, server.NetHost, gpu, hostcentric.Config{
		Port: 7000, Streams: 8, Cores: 1,
		KernelTime: p.LeNetServiceK40, Exclusive: true, Launches: 8,
		Handler: func(req []byte) []byte { return classify(net, req) },
	})
	must(sv.Start())
	res := cluster.MeasureLoad(lynx.LoadConfig{
		Proto: workload.UDP, Target: server.NetHost.Addr(7000), Payload: payload, Body: body,
		Clients: 3, Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond,
	}, client)
	cluster.Close()
	return res
}

func main() {
	net := lenet.New(42)
	// Sanity: the network actually classifies; same input, same answer.
	img := lenet.RenderDigit(3, 0, 0)
	cls, err := net.Classify(img)
	must(err)
	fmt.Printf("LeNet-5 forward pass works: digit glyph '3' -> class %d (deterministic)\n\n", cls)

	ly := runLynx(net)
	hc := runHostCentric(net)
	fmt.Println("GPU-only LeNet service, one K40m, UDP clients:")
	fmt.Printf("  %-22s %s\n", "Lynx on BlueField:", ly.String())
	fmt.Printf("  %-22s %s\n", "host-centric baseline:", hc.String())
	fmt.Printf("  speedup: %.2fx (paper: 1.25x at 3.5K vs 2.8K req/s)\n",
		ly.Throughput()/hc.Throughput())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
