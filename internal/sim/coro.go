//go:build go1.23

// The constraint lets this file use iter.Pull; go.mod stays at 1.22 for bench/perf.

package sim

import "iter"

// Spawn starts fn as a new process at the current virtual time. The process
// begins executing when the scheduler reaches its start event.
//
// The process runs as a runtime coroutine (iter.Pull): resuming it is a
// direct goroutine switch from the scheduler, and blocking switches straight
// back, with no channel operation or scheduler round trip in between. The
// closure handed to iter.Pull must stay the first function literal here:
// profile attribution treats its frame, (*Sim).Spawn.func1, as the entry of
// every process.
//
// Spawn also creates the process's bridge task and binds its continuations
// (see Proc.bridge), so no blocking call allocates.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, bridge: newTask(s, name)}
	p.bridge.proc = p
	p.resume, p.gateK, p.doneK = p.step, p.gateDone, p.awaitDone
	s.addRunner(runner{p: p})
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			s.nprocs--
			if r := recover(); r != nil {
				if _, ok := r.(killedErr); !ok {
					panic(r) // iter.Pull re-raises it from step, in the event loop
				}
			}
		}()
		fn(p)
	})
	s.atFn(s.now, p.resume)
	return p
}
