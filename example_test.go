package lynx_test

import (
	"fmt"
	"time"

	"lynx"
)

// Example builds the smallest complete deployment: a GPU echo service behind
// Lynx on a BlueField SmartNIC, and one request through it.
func Example() {
	cluster := lynx.NewCluster()
	defer cluster.Close()
	server := cluster.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", lynx.K40m, false, "server1")
	client := cluster.AddClient("client1")

	srv := cluster.NewServer(bf.Platform(7))
	h, _ := srv.Register(gpu, lynx.QueueConfig{Kind: lynx.ServerQueue, Slots: 16, SlotSize: 128}, 1)
	svc, _ := srv.AddService(lynx.UDP, 7000, nil, 1, h)
	q := h.AccelQueues()[0]
	gpu.LaunchPersistent(cluster.Testbed().Sim, 1, func(tb *lynx.TB) {
		for {
			m := q.Recv(tb.Proc())
			if q.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	})
	srv.Start()

	sock := client.MustUDPBind(9000)
	done := false
	cluster.Spawn("client", func(p *lynx.Proc) {
		sock.SendTo(svc.Addr(), []byte("hello"))
		reply := sock.Recv(p)
		fmt.Printf("echoed %q through the SmartNIC\n", reply.Payload)
		done = true
	})
	cluster.RunUntil(time.Second, func() bool { return done })
	// Output: echoed "hello" through the SmartNIC
}
