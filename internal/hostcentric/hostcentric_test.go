package hostcentric_test

import (
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/hostcentric"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/snic"
)

type bed struct {
	tb     *snic.Testbed
	server *snic.Machine
	gpu    *accel.GPU
	client *netstack.Host
}

func newBed(seed uint64) *bed {
	p := model.Default()
	tb := snic.NewTestbed(seed, &p)
	server := tb.NewMachine("server1", 6)
	gpu := server.AddGPU("gpu0", accel.K40m, false, "server1")
	return &bed{tb: tb, server: server, gpu: gpu, client: tb.AddClient("client1")}
}

func TestEchoRoundTripLatency(t *testing.T) {
	b := newBed(1)
	sv := hostcentric.New(b.tb.Sim, b.tb.Params, b.server.CPU, b.server.NetHost, b.gpu, hostcentric.Config{
		Port: 7000, Streams: 1, Cores: 1,
		KernelTime: 100 * time.Microsecond,
	})
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	hist := metrics.NewHistogram()
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			start := p.Now()
			cli.SendTo(netstack.Addr{Host: "server1", Port: 7000}, make([]byte, 4))
			dg := cli.Recv(p)
			hist.Record(p.Now().Sub(start))
			if len(dg.Payload) != 4 {
				t.Errorf("payload %d bytes", len(dg.Payload))
			}
		}
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return hist.Count() == 50 })
	b.tb.Sim.Shutdown()
	// §3.2: a 100 µs kernel measures ~130 µs end to end (30 µs management
	// overhead), plus a few µs of wire and stack time.
	med := hist.Median()
	if med < 128*time.Microsecond || med > 145*time.Microsecond {
		t.Fatalf("median %v, paper measures ~130µs + wire", med)
	}
	if sv.Served() != 50 {
		t.Fatalf("served %d", sv.Served())
	}
}

// §6.2: host-centric throughput is capped by the driver lock (~30 µs of
// serialized driver work per request) no matter how many streams are used.
func TestThroughputCappedByDriverLock(t *testing.T) {
	for _, streams := range []int{4, 32} {
		b := newBed(2)
		sv := hostcentric.New(b.tb.Sim, b.tb.Params, b.server.CPU, b.server.NetHost, b.gpu, hostcentric.Config{
			Port: 7000, Streams: streams, Cores: 1,
			KernelTime: 20 * time.Microsecond,
		})
		sv.Start()
		cli := b.client.MustUDPBind(9000)
		// Open-loop flood for 20 ms.
		b.tb.Sim.Spawn("flood", func(p *sim.Proc) {
			for i := 0; i < 4000; i++ {
				cli.SendTo(netstack.Addr{Host: "server1", Port: 7000}, make([]byte, 64))
				p.Sleep(5 * time.Microsecond)
			}
		})
		window := 20 * time.Millisecond
		b.tb.Sim.RunUntil(sim.Time(window))
		b.tb.Sim.Shutdown()
		rate := float64(sv.Served()) / window.Seconds()
		// Driver occupancy per request = 2x7.5 + 10 + 5 = 30 µs -> ~33K/s.
		if rate < 20e3 || rate > 40e3 {
			t.Fatalf("streams=%d: rate %.0f req/s, driver lock should cap at ~33K", streams, rate)
		}
	}
}

func TestPreKernelHookRuns(t *testing.T) {
	b := newBed(4)
	ran := 0
	sv := hostcentric.New(b.tb.Sim, b.tb.Params, b.server.CPU, b.server.NetHost, b.gpu, hostcentric.Config{
		Port: 7000, Streams: 1, Cores: 2,
		KernelTime: 10 * time.Microsecond,
		PreKernel: func(p *sim.Proc, req []byte) []byte {
			ran++
			p.Sleep(5 * time.Microsecond) // e.g. memcached round trip
			return append(req, '!')
		},
	})
	sv.Start()
	var resp []byte
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		cli.SendTo(netstack.Addr{Host: "server1", Port: 7000}, []byte("x"))
		dg := cli.Recv(p)
		resp = dg.Payload
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return resp != nil })
	b.tb.Sim.Shutdown()
	if ran != 1 || string(resp) != "x!" {
		t.Fatalf("ran=%d resp=%q", ran, resp)
	}
}

func TestDoubleStartFails(t *testing.T) {
	b := newBed(5)
	sv := hostcentric.New(b.tb.Sim, b.tb.Params, b.server.CPU, b.server.NetHost, b.gpu, hostcentric.Config{Port: 7000})
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sv.Start(); err == nil {
		t.Fatal("double start must fail")
	}
}
