// Quickstart: the smallest complete Lynx deployment.
//
// One server machine with a BlueField SmartNIC and a K40m GPU; the GPU runs
// a persistent-kernel echo service behind Lynx; a client sends ten UDP
// requests and prints the round-trip latencies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"lynx"
)

func main() {
	// 1. Build the cluster: one server (6 Xeon cores), a BlueField SNIC,
	//    one GPU, one client machine.
	cluster := lynx.NewCluster()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")

	// 2. Create the Lynx runtime on the SmartNIC's ARM cores and register
	//    the GPU with four server mqueues.
	srv := cluster.NewServer(bf.Platform(7))
	handle, err := srv.Register(gpu, lynx.QueueConfig{
		Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128,
	}, 4)
	must(err)
	svc, err := srv.AddService(lynx.UDP, 7000, nil, 4, handle)
	must(err)

	// 3. The accelerator side: one persistent threadblock per mqueue,
	//    echoing requests back. This is the only application code — Lynx
	//    itself never sees it.
	queues := handle.AccelQueues()
	must(gpu.LaunchPersistent(cluster.Testbed().Sim, 4, func(tb *lynx.TB) {
		q := queues[tb.Index()]
		for {
			msg := q.Recv(tb.Proc())
			tb.Compute(10 * time.Microsecond) // pretend to work
			if q.Send(tb.Proc(), uint16(msg.Slot), msg.Payload) != nil {
				return
			}
		}
	}))
	must(srv.Start())

	// 4. A client sends ten requests and measures round trips.
	sock := client.MustUDPBind(9000)
	done := false
	cluster.Spawn("client", func(p *lynx.Proc) {
		for i := 0; i < 10; i++ {
			start := p.Now()
			sock.SendTo(svc.Addr(), []byte(fmt.Sprintf("ping %d", i)))
			reply := sock.Recv(p)
			fmt.Printf("  %-8s -> %-8s in %v\n",
				fmt.Sprintf("ping %d", i), reply.Payload, p.Now().Sub(start))
		}
		done = true
	})

	fmt.Printf("echo service at %v, via Lynx on BlueField:\n", svc.Addr())
	cluster.RunUntil(time.Second, func() bool { return done })
	fmt.Printf("server stats: %s\n", srv.Stats())
	cluster.Close()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
