// Accelerator composition: the paper positions Lynx as "a stepping stone for
// a general infrastructure targeting multi-accelerator systems which will
// enable efficient composition of accelerators and CPUs in a single
// application" (§1). This file implements that extension: pipelines, where a
// request flows client -> stage 0 -> stage 1 -> ... -> client, each stage an
// mqueue on (possibly) a different accelerator, with the SNIC relaying
// between stages through the same RDMA machinery — no host CPU and no
// network stack anywhere between stages. A pipeline is a Service with more
// than one stage: it shares the service's receive contexts, dispatch
// policy, watchdog failover and responder.
package core

import "fmt"

// AddPipeline exposes a multi-accelerator pipeline as a network service on
// port. Each stage claims `count` parallel mqueues from its handle; the
// dispatch policy picks among the parallel queues independently at every
// stage. Requests enter stage 0; each stage's TX output becomes the next
// stage's RX input; the final stage's output returns to the client that sent
// the request, with the usual server-mqueue reply-to-sender semantics.
func (rt *Runtime) AddPipeline(proto Proto, port uint16, policy Policy, count int, stages ...*AccelHandle) (*Service, error) {
	if len(stages) < 2 {
		return nil, fmt.Errorf("core: a pipeline needs at least two stages (use AddService for one)")
	}
	return rt.addService(proto, port, policy, count, stages, true)
}
