// Accelerator composition: the paper positions Lynx as "a stepping stone for
// a general infrastructure targeting multi-accelerator systems which will
// enable efficient composition of accelerators and CPUs in a single
// application" (§1). This file implements that extension: pipelines, where a
// request flows client -> stage 0 -> stage 1 -> ... -> client, each stage an
// mqueue on (possibly) a different accelerator, with the SNIC relaying
// between stages through the same RDMA machinery — no host CPU and no
// network stack anywhere between stages.
package core

import (
	"fmt"

	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
)

// Pipeline is a chain of accelerator stages behind one network service.
type Pipeline struct {
	rt     *Runtime
	proto  Proto
	port   uint16
	policy Policy
	// stages[i] holds the parallel queues of stage i.
	stages [][]*pipeQueue

	udpSock *netstack.UDPSocket
	tcpList *netstack.TCPListener

	relayed uint64 // stage-to-stage messages moved by the SNIC
}

// pipeQueue is one mqueue of one stage, with per-slot continuations.
type pipeQueue struct {
	q       *mqueue.Queue
	h       *AccelHandle
	pending [][]replyTo
}

// AddPipeline exposes a multi-accelerator pipeline as a network service on
// port. Each stage claims `count` parallel mqueues from its handle; the
// dispatch policy picks among the parallel queues independently at every
// stage. Requests enter stage 0; each stage's TX output becomes the next
// stage's RX input; the final stage's output returns to the client that sent
// the request, with the usual server-mqueue reply-to-sender semantics.
func (rt *Runtime) AddPipeline(proto Proto, port uint16, policy Policy, count int, stages ...*AccelHandle) (*Pipeline, error) {
	if rt.started {
		return nil, fmt.Errorf("core: cannot add pipelines after Start")
	}
	if len(stages) < 2 {
		return nil, fmt.Errorf("core: a pipeline needs at least two stages (use AddService for one)")
	}
	if policy == nil {
		policy = &RoundRobin{}
	}
	pl := &Pipeline{rt: rt, proto: proto, port: port, policy: policy}
	var claimed []*AccelHandle
	rollback := func() {
		for _, h := range claimed {
			h.unclaim(count)
		}
	}
	for _, h := range stages {
		qs, _, err := h.claim(count)
		if err != nil {
			rollback()
			return nil, err
		}
		claimed = append(claimed, h)
		var stage []*pipeQueue
		for _, q := range qs {
			stage = append(stage, &pipeQueue{
				q: q, h: h, pending: make([][]replyTo, q.Config().Slots),
			})
		}
		pl.stages = append(pl.stages, stage)
	}
	var err error
	switch proto {
	case UDP:
		pl.udpSock, err = rt.plat.NetHost.UDPBind(port)
	case TCP:
		pl.tcpList, err = rt.plat.NetHost.TCPListen(port)
	}
	if err != nil {
		rollback()
		return nil, err
	}
	rt.pipelines = append(rt.pipelines, pl)
	return pl, nil
}

// Addr returns the pipeline's service address.
func (pl *Pipeline) Addr() netstack.Addr { return pl.rt.plat.NetHost.Addr(pl.port) }

// Relayed reports stage-to-stage messages moved by the SNIC.
func (pl *Pipeline) Relayed() uint64 { return pl.relayed }

// Stages reports the number of stages.
func (pl *Pipeline) Stages() int { return len(pl.stages) }

// enter dispatches a client request into stage 0.
func (pl *Pipeline) enter(p *sim.Proc, payload []byte, to replyTo) {
	rt := pl.rt
	rt.exec(p, rt.plat.Params.DispatchCost)
	pl.pushStage(p, 0, payload, to)
}

// pushStage delivers a message into one stage, recording the continuation.
func (pl *Pipeline) pushStage(p *sim.Proc, stage int, payload []byte, to replyTo) {
	rt := pl.rt
	queues := pl.stages[stage]
	pq := queues[pl.policy.Pick(netstack.Addr{}, len(queues))]
	slot, err := pq.q.Push(p, payload, 0)
	if err != nil {
		rt.drop(p.Now(), DropOverflow, uint64(stage))
		return
	}
	pq.pending[slot] = append(pq.pending[slot], to)
	if stage == 0 {
		rt.stats.Received++
	}
}
