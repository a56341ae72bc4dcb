package workload

import (
	"strings"
	"testing"
	"time"

	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/netstack"
	"lynx/internal/sim"
)

func metricsNewHistogram() *metrics.Histogram { return metrics.NewHistogram() }

// echoService runs a UDP and a TCP echo server with a fixed service time.
func echoService(s *sim.Sim, host *netstack.Host, service time.Duration) {
	sock := host.MustUDPBind(7000)
	s.Spawn("srv/udp", func(p *sim.Proc) {
		for {
			dg := sock.Recv(p)
			if service > 0 {
				p.Sleep(service)
			}
			sock.SendTo(dg.From, dg.Payload)
		}
	})
	l := host.MustTCPListen(7000)
	s.Spawn("srv/tcp", func(p *sim.Proc) {
		for {
			conn := l.Accept(p)
			s.Spawn("srv/tcp-conn", func(p *sim.Proc) {
				for {
					msg, err := conn.Recv(p)
					if err != nil {
						return
					}
					if service > 0 {
						p.Sleep(service)
					}
					if conn.Send(p, msg) != nil {
						return
					}
				}
			})
		}
	})
}

func newNet(seed uint64) (*sim.Sim, *netstack.Network) {
	s := sim.New(sim.Config{Seed: seed})
	p := model.Default()
	return s, netstack.New(s, &p)
}

func TestSeqHelpers(t *testing.T) {
	buf := make([]byte, 16)
	PutSeq(buf, 0xDEADBEEF)
	if v, ok := Seq(buf); !ok || v != 0xDEADBEEF {
		t.Fatalf("seq round trip: %v %v", v, ok)
	}
	if _, ok := Seq([]byte{1, 2}); ok {
		t.Fatal("short message must not parse")
	}
}

func TestClosedLoopUDPMeasuresServiceTime(t *testing.T) {
	s, n := newNet(1)
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	const service = 100 * time.Microsecond
	echoService(s, srv, service)
	g := New(s, Config{
		Proto: UDP, Target: srv.Addr(7000), Payload: 64,
		Clients: 1, Duration: 20 * time.Millisecond, Warmup: 2 * time.Millisecond,
	}, cli)
	res := RunFor(s, g)
	s.Shutdown()
	if res.Received < 100 {
		t.Fatalf("only %d responses", res.Received)
	}
	med := res.Hist.Median()
	if med < service || med > service+20*time.Microsecond {
		t.Fatalf("median %v, want ~service %v + wire", med, service)
	}
	// Closed loop with 1 client: throughput ≈ 1/latency.
	want := 1 / med.Seconds()
	if tp := res.Throughput(); tp < want*0.8 || tp > want*1.2 {
		t.Fatalf("throughput %.0f, want ~%.0f", tp, want)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d on a lossless path", res.Lost)
	}
}

func TestClosedLoopConcurrencyScalesThroughput(t *testing.T) {
	run := func(clients int) float64 {
		s, n := newNet(2)
		srv := n.AddHost("server")
		cli := n.AddHost("client")
		// A parallel server: each request sleeps independently.
		sock := srv.MustUDPBind(7000)
		s.Spawn("srv", func(p *sim.Proc) {
			for {
				dg := sock.Recv(p)
				s.Spawn("handler", func(hp *sim.Proc) {
					hp.Sleep(200 * time.Microsecond)
					sock.SendTo(dg.From, dg.Payload)
				})
			}
		})
		g := New(s, Config{
			Proto: UDP, Target: srv.Addr(7000), Payload: 64,
			Clients: clients, Duration: 20 * time.Millisecond,
		}, cli)
		res := RunFor(s, g)
		s.Shutdown()
		return res.Throughput()
	}
	one := run(1)
	eight := run(8)
	if eight < 6*one {
		t.Fatalf("8 clients gave %.0f, 1 client %.0f: want ~8x", eight, one)
	}
}

func TestOpenLoopHitsConfiguredRate(t *testing.T) {
	s, n := newNet(3)
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	echoService(s, srv, 10*time.Microsecond)
	g := New(s, Config{
		Proto: UDP, Target: srv.Addr(7000), Payload: 64,
		Clients: 2, RatePerSec: 50000, Duration: 20 * time.Millisecond, Warmup: time.Millisecond,
	}, cli)
	res := RunFor(s, g)
	s.Shutdown()
	if tp := res.Throughput(); tp < 45000 || tp > 55000 {
		t.Fatalf("open-loop delivered %.0f req/s, want ~50000", tp)
	}
}

func TestClosedLoopTCP(t *testing.T) {
	s, n := newNet(4)
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	echoService(s, srv, 50*time.Microsecond)
	g := New(s, Config{
		Proto: TCP, Target: srv.Addr(7000), Payload: 128,
		Clients: 4, Duration: 10 * time.Millisecond,
	}, cli)
	res := RunFor(s, g)
	s.Shutdown()
	if res.Received < 100 {
		t.Fatalf("only %d TCP responses", res.Received)
	}
	if res.Hist.Median() < 50*time.Microsecond {
		t.Fatalf("median %v below service time", res.Hist.Median())
	}
}

func TestTimeoutCountsLost(t *testing.T) {
	s, n := newNet(5)
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	// Server that drops every other request.
	sock := srv.MustUDPBind(7000)
	s.Spawn("srv", func(p *sim.Proc) {
		i := 0
		for {
			dg := sock.Recv(p)
			i++
			if i%2 == 0 {
				continue
			}
			sock.SendTo(dg.From, dg.Payload)
		}
	})
	g := New(s, Config{
		Proto: UDP, Target: srv.Addr(7000), Payload: 64,
		Clients: 1, Duration: 10 * time.Millisecond, Timeout: 500 * time.Microsecond,
	}, cli)
	res := RunFor(s, g)
	s.Shutdown()
	if res.Lost == 0 {
		t.Fatal("expected losses")
	}
	if res.Received == 0 {
		t.Fatal("expected some successes")
	}
}

func TestBodyBuilder(t *testing.T) {
	s, n := newNet(6)
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	var sawBody bool
	sock := srv.MustUDPBind(7000)
	s.Spawn("srv", func(p *sim.Proc) {
		for {
			dg := sock.Recv(p)
			if len(dg.Payload) == 32 && dg.Payload[SeqBytes] == 0xAB {
				sawBody = true
			}
			sock.SendTo(dg.From, dg.Payload)
		}
	})
	g := New(s, Config{
		Proto: UDP, Target: srv.Addr(7000), Payload: 32,
		Body:    func(seq uint64, buf []byte) { buf[SeqBytes] = 0xAB },
		Clients: 1, Duration: time.Millisecond,
	}, cli)
	RunFor(s, g)
	s.Shutdown()
	if !sawBody {
		t.Fatal("body builder output not observed")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Received: 100, Lost: 2, Window: 100 * time.Millisecond}
	r.Hist = metricsNewHistogram()
	r.Hist.Record(time.Millisecond)
	s := r.String()
	if !strings.Contains(s, "1000 req/s") || !strings.Contains(s, "lost=2") {
		t.Fatalf("string %q", s)
	}
	if (Result{}).Throughput() != 0 {
		t.Fatal("zero-window throughput")
	}
}

func TestOpenLoopTCP(t *testing.T) {
	s, n := newNet(9)
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	echoService(s, srv, 20*time.Microsecond)
	g := New(s, Config{
		Proto: TCP, Target: srv.Addr(7000), Payload: 64,
		Clients: 2, RatePerSec: 20000, Duration: 10 * time.Millisecond, Warmup: time.Millisecond,
	}, cli)
	res := RunFor(s, g)
	s.Shutdown()
	if tp := res.Throughput(); tp < 16000 || tp > 24000 {
		t.Fatalf("open-loop TCP delivered %.0f, want ~20000", tp)
	}
}

func TestPoissonOpenLoopRate(t *testing.T) {
	s, n := newNet(10)
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	echoService(s, srv, 5*time.Microsecond)
	g := New(s, Config{
		Proto: UDP, Target: srv.Addr(7000), Payload: 64,
		Clients: 4, RatePerSec: 40000, Poisson: true,
		Duration: 25 * time.Millisecond, Warmup: 2 * time.Millisecond,
	}, cli)
	res := RunFor(s, g)
	s.Shutdown()
	if tp := res.Throughput(); tp < 32000 || tp > 48000 {
		t.Fatalf("Poisson open loop delivered %.0f, want ~40000", tp)
	}
	// Poisson arrivals must produce latency dispersion, unlike periodic.
	if res.Hist.P99() == res.Hist.Median() {
		t.Fatal("no latency dispersion under Poisson arrivals")
	}
}

// TestBodySeesAZeroedRequestBuffer: each client reuses one request buffer,
// so Body must find it zero past the header whatever the previous request
// wrote, on every client kind.
func TestBodySeesAZeroedRequestBuffer(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"udp-closed", Config{Proto: UDP, Clients: 2}},
		{"udp-open", Config{Proto: UDP, Clients: 2, RatePerSec: 20000}},
		{"tcp-closed", Config{Proto: TCP, Clients: 2}},
		{"tcp-open", Config{Proto: TCP, Clients: 2, RatePerSec: 20000}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, n := newNet(1)
			srv := n.AddHost("server")
			echoService(s, srv, 10*time.Microsecond)
			calls := 0
			cfg := c.cfg
			cfg.Target, cfg.Payload = srv.Addr(7000), 64
			cfg.Duration, cfg.Warmup = 2*time.Millisecond, 200*time.Microsecond
			cfg.Body = func(seq uint64, buf []byte) {
				calls++
				for i, b := range buf[SeqBytes:] {
					if b != 0 {
						t.Fatalf("request %d: byte %d past the header is %#x", seq, SeqBytes+i, b)
					}
				}
				for i := SeqBytes; i < SeqBytes+int(seq%32); i++ {
					buf[i] = 0xAB
				}
			}
			res := RunFor(s, New(s, cfg, n.AddHost("client")))
			s.Shutdown()
			if calls < 10 || res.Received == 0 {
				t.Fatalf("%d requests built, %d responses", calls, res.Received)
			}
		})
	}
}
