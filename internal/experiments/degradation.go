package experiments

import (
	"fmt"
	"time"

	"lynx/internal/cluster"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/workload"
)

func init() {
	register("degradation",
		"graceful degradation: goodput & p99 vs datagram loss, Lynx vs host-centric (fault-injection extension)",
		degradation)
}

// degradationCell runs the kvstore service on one platform under the given
// datagram loss rate, with loss-aware clients (bounded same-sequence
// retransmit), and reports the measured result.
//
// The Lynx deployment is the single-server KV service — the 1-node, RF=1
// rack — serving GETs from persistent GPU threadblocks through SNIC-managed
// mqueues; the host-centric baseline is the memcached-style
// deployment on the Xeon cores. Both see the same client behavior and the
// same fault plan shape, so the sweep isolates how each architecture's
// request path degrades as the network loses datagrams.
type degradationCell struct {
	lynx bool
	loss float64
}

func (c degradationCell) run(cfg Config) workload.Result {
	window := cfg.window(20 * time.Millisecond)
	cfg.Faults = fault.Config{Seed: cfg.Seed, DropRate: c.loss}
	wcfg := workload.Config{
		Proto: workload.UDP, Payload: 64,
		Body:    kvGetBody,
		Clients: 8, Duration: window, Warmup: window / 5,
		// Loss-aware clients: retransmit the same sequence up to 3 times
		// with exponential backoff before declaring it lost.
		Timeout: time.Millisecond, Retries: 3,
	}
	if c.lynx {
		p := model.Default()
		rack := cfg.rack(cluster.Config{Nodes: 1, Replicas: 1, Params: p.WithBatch(cfg.Batch)})
		defer rack.Close()
		wcfg.Target = rack.Node(0).Addr()
		return rack.Measure(wcfg)
	}
	e := newEnv(cfg)
	store := memcachedInstances(e.tb, e.server.NetHost, e.server.CPU, &e.params, 11211, 6, false, 0, nil)
	preloadKV(store)
	wcfg.Target = e.server.NetHost.Addr(11211)
	res := e.measure(wcfg)
	e.tb.Sim.Shutdown()
	return res
}

func degradation(cfg Config) *Report {
	losses := []float64{0, 0.001, 0.01, 0.05}
	r := &Report{
		ID:      "degradation",
		Title:   "goodput & tail latency vs datagram loss (retransmitting clients)",
		Columns: []string{"goodput", "req/s", "p99", "retries"},
	}
	var pts []degradationCell
	for _, lynx := range []bool{true, false} {
		for _, loss := range losses {
			pts = append(pts, degradationCell{lynx, loss})
		}
	}
	results := measureAll(cfg, pts)
	for _, pt := range pts {
		name := platHostCentric
		if pt.lynx {
			name = platLynxBF
		}
		res := results[pt]
		r.AddRow(fmt.Sprintf("%s @ %.1f%% loss", name, pt.loss*100),
			fmt.Sprintf("%.3f", res.GoodputFraction()),
			res.Throughput(), res.Hist.P99(), fmt.Sprint(res.Retries))
	}
	r.Note("goodput = responses/requests with ≤3 same-seq retransmits per request (1ms base timeout, exponential backoff)")
	r.Note("not in the paper: a robustness extension exercising the fault plane (internal/fault)")
	return r
}
