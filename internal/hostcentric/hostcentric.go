// Package hostcentric implements the baseline the paper compares against
// (§6.1 "Host-centric"): a traditional network server in which the host CPU
// receives every message, then drives the GPU through CUDA streams — one
// H2D copy, a kernel launch, one D2H copy and a sync per request — with all
// driver calls serialized by the driver lock.
//
// Per §6.2 the baseline "run[s] on one CPU core because more threads result
// in a slowdown due to an NVIDIA driver bottleneck", using "a pool of
// concurrent CUDA streams, each handling one network request".
package hostcentric

import (
	"fmt"
	"time"

	"lynx/internal/accel"
	"lynx/internal/cpuarch"
	"lynx/internal/model"
	"lynx/internal/netstack"
	"lynx/internal/sim"
)

// Handler computes the response for one request (the functional payload of
// the GPU kernel; its *timing* is KernelTime).
type Handler func(req []byte) []byte

// Config shapes a host-centric server.
type Config struct {
	// Port the UDP frontend listens on.
	Port uint16
	// Streams is the CUDA stream pool size (concurrent in-flight requests).
	Streams int
	// Cores is the number of CPU cores the frontend may use (1 in the
	// paper's GPU microbenchmarks, 2 for face verification).
	Cores int
	// KernelTime is the GPU execution time per request.
	KernelTime time.Duration
	// Exclusive marks whole-GPU kernels (LeNet) vs single-TB ones (echo).
	Exclusive bool
	// Launches is the number of dependent kernel launches per request (a
	// TVM LeNet is a chain of per-layer kernels; default 1).
	Launches int
	// H2DBytes/D2HBytes are per-request copy sizes; when zero they default
	// to the request/response payload sizes.
	H2DBytes, D2HBytes int
	// Handler computes the response (echo when nil).
	Handler Handler
	// PreKernel, when set, runs on the CPU before the GPU pipeline (e.g.
	// the §6.4 asynchronous memcached fetch). It may block on I/O.
	PreKernel func(p *sim.Proc, req []byte) []byte
}

// Server is a host-centric accelerated network server.
type Server struct {
	params  *model.Params
	machine *cpuarch.Machine
	host    *netstack.Host
	gpu     *accel.GPU
	cfg     Config
	cores   *sim.Resource

	served  uint64
	started bool
}

// New creates a host-centric server on the machine that owns the GPU.
func New(s *sim.Sim, p *model.Params, machine *cpuarch.Machine, host *netstack.Host, gpu *accel.GPU, cfg Config) *Server {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Handler == nil {
		cfg.Handler = func(req []byte) []byte { return req }
	}
	return &Server{
		params: p, machine: machine, host: host, gpu: gpu, cfg: cfg,
		cores: sim.NewResource(s, cfg.Cores),
	}
}

// exec charges CPU work against the server's core allocation (with noisy
// neighbor interference if active on the machine).
func (sv *Server) exec(p *sim.Proc, cost time.Duration) {
	sv.cores.Acquire(p)
	sv.machine.Exec(p, cost)
	sv.cores.Release()
}

// handle runs the full per-request pipeline on one stream.
func (sv *Server) handle(p *sim.Proc, st *accel.Stream, req []byte) []byte {
	if sv.cfg.PreKernel != nil {
		req = sv.cfg.PreKernel(p, req)
	}
	h2d := sv.cfg.H2DBytes
	if h2d == 0 {
		h2d = len(req)
	}
	// The CPU drives the stream. The CPU time of this design is the driver
	// calls themselves (spinning under the global driver lock), so the
	// pipeline is not additionally charged against the core pool — which
	// also models why extra cores buy the baseline nothing (§6.2).
	st.MemcpyH2D(p, h2d)
	st.LaunchN(p, sv.cfg.Launches, sv.cfg.KernelTime, sv.cfg.Exclusive)
	resp := sv.cfg.Handler(req)
	d2h := sv.cfg.D2HBytes
	if d2h == 0 {
		d2h = len(resp)
	}
	st.MemcpyD2H(p, d2h)
	st.Sync(p)
	sv.served++
	return resp
}

// Start brings up the frontend: one worker process per CUDA stream, all
// draining the shared socket. The host runs VMA networking (§5.1.1).
func (sv *Server) Start() error {
	if sv.started {
		return fmt.Errorf("hostcentric: already started")
	}
	sv.started = true
	sock, err := sv.host.UDPBind(sv.cfg.Port)
	if err != nil {
		return err
	}
	streams := make([]*accel.Stream, sv.cfg.Streams)
	for i := range streams {
		streams[i] = sv.gpu.NewStream()
	}
	udpCost := sv.params.UDPCost(model.XeonCore, true)
	sock.Serve("hostcentric/stream", len(streams), func(p *sim.Proc, i int, _ netstack.Addr, msg, out []byte) []byte {
		sv.exec(p, udpCost)
		resp := sv.handle(p, streams[i], msg)
		sv.exec(p, udpCost)
		// resp may be the lent request itself (the default echo Handler).
		return append(out, resp...)
	})
	return nil
}
