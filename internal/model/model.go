// Package model is the single source of truth for the calibrated hardware
// constants used throughout the simulation. Every constant is annotated with
// the paper section or measurement it was calibrated against, so that
// benchmark shapes (who wins, by what factor, where crossovers fall) track
// the published results. Absolute values are a best-effort reconstruction of
// the authors' testbed (Xeon E5-2620 v2 hosts, Mellanox BlueField and Innova
// SNICs, NVIDIA K40m/K80 GPUs, 40 Gb/s SN2100 switch).
package model

import "time"

// CPUKind identifies a processor microarchitecture in the testbed.
type CPUKind int

const (
	// XeonCore is one Intel Xeon E5-2620 v2 core (2.1 GHz, out-of-order).
	XeonCore CPUKind = iota
	// ARMCore is one BlueField ARM A72 core at 800 MHz (§2). Roughly 2.8x
	// slower than a Xeon core on the network-processing code paths,
	// consistent with "4 host CPU cores match [7-core] BlueField" (§6.2).
	ARMCore
	// E3Core is one Intel E3 core inside the Visual Compute Accelerator.
	E3Core
)

// String returns the human-readable CPU name.
func (k CPUKind) String() string {
	switch k {
	case XeonCore:
		return "Xeon"
	case ARMCore:
		return "ARM-A72"
	case E3Core:
		return "E3"
	default:
		return "unknown-cpu"
	}
}

// SpeedFactor scales a nominal (Xeon-calibrated) CPU cost to this core.
func (k CPUKind) SpeedFactor() float64 {
	switch k {
	case ARMCore:
		// §6.2: one Xeon core ≈ 1.75 ARM cores on UDP server processing
		// (4 Xeon cores match 7 ARM cores).
		return 1.75
	case E3Core:
		return 1.15
	default:
		return 1.0
	}
}

// Params bundles every calibrated constant. Obtain defaults via Default and
// tweak fields in experiments that sweep a dimension.
type Params struct {
	// --- Network fabric -------------------------------------------------

	// WireBandwidth is the link rate between any host/SNIC and the switch.
	// Testbed: 40 Gb/s SN2100 (BlueField link runs at 25 Gb/s; the
	// difference is immaterial for the small messages used in the paper).
	WireBandwidth float64 // bits per second
	// WirePropagation is one-way propagation + switch cut-through latency.
	WirePropagation time.Duration
	// SwitchLatency is the per-hop store-and-forward/processing latency.
	SwitchLatency time.Duration

	// --- Host / SNIC network stacks --------------------------------------

	// UDPProcessKernel is the per-packet CPU cost of the Linux kernel UDP
	// path on a Xeon core (syscall + stack). §5.1.1 reports VMA cuts UDP
	// latency 2x on the host, 4x on BlueField (ARM syscalls are dearer).
	UDPProcessKernel time.Duration
	// UDPProcessVMA is the per-packet CPU cost with the VMA user-level
	// stack on a Xeon core. Calibrated so one Xeon core drives ~244K
	// UDP req/s of Lynx dispatch (Fig. 8c: 74 GPUs x 3.3K req/s).
	UDPProcessVMA time.Duration
	// TCPMultKernel/TCPMultVMA scale the respective UDP costs for TCP
	// segments. TCP is far heavier, especially on ARM (Fig. 8c: TCP scales
	// to 15 GPUs on 7 ARM cores vs 102 for UDP => ~6.8x).
	TCPMultKernel float64
	TCPMultVMA    float64
	// ARMSyscallPenalty multiplies *kernel* network costs on ARM cores on
	// top of SpeedFactor (§5.1.1: "ARM cores on BlueField incur high system
	// call cost", which is why VMA helps 4x there vs 2x on Xeon).
	ARMSyscallPenalty float64
	// StackSerialFraction is the fraction of per-message server processing
	// that runs under a single serialized context (the VMA receive ring +
	// dispatcher shared state). It caps multi-core scaling of the Lynx
	// runtime and reproduces Fig. 8c's observation that 7 ARM cores buy
	// only ~1.4x one Xeon core of Lynx dispatch (102 vs 74 GPUs), while 6
	// Xeon cores are ~1.8x BlueField (the "up to 45% slower" of §6.2).
	StackSerialFraction float64
	// SerialBatchFixed is the fraction of the per-message serialized-section
	// cost that is fixed per dispatcher pass rather than per message: ring
	// doorbell reads, dispatcher lock handoff, receive-ring cache refills.
	// When the dispatcher processes a quantum of k messages in one pass
	// (Batch.Quantum > 1), the serialized charge becomes
	// fixed + k*(per-message - fixed) instead of k*per-message — this is the
	// amortization that moves the Fig. 9 serialization knee. Irrelevant at
	// quantum 1, where the charge reduces to the exact legacy value.
	SerialBatchFixed float64

	// --- Batching ---------------------------------------------------------

	// Batch tunes end-to-end hot-path batching (doorbell coalescing, CQ
	// drain budget, dispatcher quantum, coalescing window). The zero value
	// batches nothing and leaves every code path byte-identical to the
	// per-message runtime; see BatchConfig.
	Batch BatchConfig

	// --- PCIe fabric ------------------------------------------------------

	// PCIeLatency is the one-way latency of a PCIe transaction (posted
	// write reaching peer memory), per hop (a switch adds another hop).
	PCIeLatency time.Duration
	// PCIeBandwidth is the usable DMA bandwidth of a x8 Gen3 link.
	PCIeBandwidth float64 // bits per second
	// PCIeSwitchLatency is added when crossing the BlueField-internal or
	// VCA-internal PCIe switch.
	PCIeSwitchLatency time.Duration

	// --- RDMA engine ------------------------------------------------------

	// RDMAIssue is the CPU-side cost to post a one-sided RDMA work request
	// ("less than 1 µsec to invoke by the CPU", §5.1, citing [11]).
	RDMAIssue time.Duration
	// RDMAEngine is the NIC hardware processing time per WQE.
	RDMAEngine time.Duration
	// RDMARemotePenalty is the extra per-direction network latency of an
	// RDMA operation to an accelerator behind a *different* host's NIC. A
	// message's life costs it about five times (RX write, header poll RTT,
	// slot read RTT) — §6.3 measures ~8 µs added end-to-end, so the
	// per-hop penalty is ~1.5 µs.
	RDMARemotePenalty time.Duration
	// RDMAReadBarrier is the cost of the RDMA-read write-barrier that
	// enforces PCIe write ordering into GPU memory (§5.1: "extra latency of
	// 5 µseconds to each message"; disabled by default like the paper).
	RDMAReadBarrier time.Duration

	// --- GPU management (host-centric path) ------------------------------

	// CudaMemcpyAsyncSetup is the constant driver overhead of one
	// cudaMemcpyAsync ("7-8 µsec", §5.1, Fig. 5 discussion).
	CudaMemcpyAsyncSetup time.Duration
	// GdrcopySetup is the CPU-side setup of a gdrcopy mapped write; the
	// copy itself blocks the caller at memory speed.
	GdrcopySetup time.Duration
	// KernelLaunch is the driver+hardware cost of launching a GPU kernel.
	KernelLaunch time.Duration
	// StreamSync is the cost of detecting completion and synchronizing a
	// CUDA stream. KernelLaunch+StreamSync+2*CudaMemcpyAsyncSetup ≈ 30 µs,
	// the §3.2 echo measurement (130 µs end-to-end for a 100 µs kernel).
	StreamSync time.Duration

	// --- GPU device -------------------------------------------------------

	// GPUMaxThreadblocks is the number of concurrently resident
	// threadblocks of the persistent kernel (240 on K40m, §6.2).
	GPUMaxThreadblocks int
	// GPUPollInterval is the device-memory polling loop period of one
	// persistent-kernel threadblock waiting on its mqueue doorbell.
	GPUPollInterval time.Duration
	// GPULocalAccess is a device-local memory access (enqueue cost from the
	// accelerator side; "exactly the latency of accelerator local memory
	// access", §4.2).
	GPULocalAccess time.Duration
	// DynamicParallelismLaunch is the device-side child-kernel launch cost
	// (LeNet server uses dynamic parallelism, §6.3).
	DynamicParallelismLaunch time.Duration

	// --- Accelerator service times (virtual kernel durations) -----------

	// LeNetServiceK40 is the pure GPU execution time of one LeNet inference
	// on K40m. Theoretical max 3.6 K req/s (§6.3) => ~278 µs.
	LeNetServiceK40 time.Duration
	// LeNetServiceK80 is the per-request time on one K80 half ("Tesla K80
	// ... achieves 3300 req/sec at most", §6.3) => ~303 µs.
	LeNetServiceK80 time.Duration
	// FaceVerifyService is the LBP comparison kernel time ("about 50 µsec",
	// §6.4).
	FaceVerifyService time.Duration

	// --- Innova / NICA ----------------------------------------------------

	// InnovaPipeline is the per-packet time of the FPGA AFU receive
	// pipeline (7.4 M pkt/s, §6.2 => ~135 ns).
	InnovaPipeline time.Duration
	// InnovaHelperRefill is the CPU helper-thread cost per received message
	// to refill the UC QP custom ring (§5.2 limitation).
	InnovaHelperRefill time.Duration

	// --- VCA / SGX --------------------------------------------------------

	// SGXTransition is the cost of an enclave entry or exit (ecall/ocall).
	SGXTransition time.Duration
	// VCABridgeKernelPath is the per-direction cost of the Intel-preferred
	// host-bridge + IP-over-PCIe tunnel + native VCA Linux stack path into
	// a VCA node (baseline in §6.2's VCA experiment; Lynx beats it 4.3x at
	// the p90).
	VCABridgeKernelPath time.Duration
	// SecureComputeService is the AES decrypt+multiply+encrypt time.
	SecureComputeService time.Duration

	// --- memcached --------------------------------------------------------

	// MemcachedOpXeon is the per-request application service time of
	// memcached on one Xeon core; with the VMA stack's 2x1 µs per-packet
	// cost the per-op total is ~4 µs => 250 Ktps/core at low latency
	// (Fig. 9).
	MemcachedOpXeon time.Duration
	// MemcachedNetOverheadBF reflects BlueField's slower, batched network
	// path: higher throughput per chip (400 Ktps) at 160 µs p99 latency
	// (Fig. 9) because seven slow cores pipeline deeper.
	MemcachedBatchLatencyBF time.Duration

	// --- Noisy neighbor ---------------------------------------------------

	// LLCInterferenceP99 is the p99 added latency a cache-thrashing
	// neighbor inflicts on a co-located latency-sensitive server thread
	// (§3.2: p99 0.13 ms -> 1.7 ms).
	LLCInterferenceP99 time.Duration
	// LLCInterferenceProb is the per-request probability of a major LLC
	// refill stall while the neighbor runs.
	LLCInterferenceProb float64
	// NeighborSlowdown is the matmul slowdown when co-located (§3.2: 21%).
	NeighborSlowdown float64

	// --- Lynx runtime ----------------------------------------------------

	// DispatchCost is the SNIC-side CPU work to parse one message, pick an
	// mqueue and post the RDMA delivery (excluding netstack processing),
	// Xeon-calibrated. Together with ForwardCost and the UDP costs this
	// puts one Lynx'd message at ~4.5 µs of Xeon CPU — ~244K req/s per
	// core, the Fig. 8c anchor (74 GPUs x 3.3K req/s).
	DispatchCost time.Duration
	// ForwardCost is the SNIC-side CPU work to fetch one response
	// descriptor (poll issue included) and hand it to the netstack,
	// Xeon-calibrated.
	ForwardCost time.Duration
	// MQPollInterval is the Remote MQ Manager's polling period over the TX
	// rings of registered mqueues.
	MQPollInterval time.Duration

	// --- Robustness ------------------------------------------------------

	// MQWatchdogTimeout is how long a server mqueue may hold in-flight
	// messages without the accelerator making progress (no RX consumption,
	// no TX production) before the MQ-manager watchdog marks it failed and
	// dispatch fails over to the remaining queues. The queue is restored as
	// soon as it makes progress again. Must comfortably exceed the longest
	// per-request accelerator service time (LeNet is ~300 µs). Zero
	// disables the watchdog.
	MQWatchdogTimeout time.Duration
}

// Default returns the calibrated parameter set. The returned value may be
// modified freely by the caller (it is a copy).
func Default() Params {
	return Params{
		WireBandwidth:   40e9,
		WirePropagation: 300 * time.Nanosecond,
		SwitchLatency:   300 * time.Nanosecond,

		UDPProcessKernel:    2000 * time.Nanosecond,
		UDPProcessVMA:       1000 * time.Nanosecond,
		TCPMultKernel:       12.0,
		TCPMultVMA:          10.0,
		ARMSyscallPenalty:   2.0,
		StackSerialFraction: 0.4,
		SerialBatchFixed:    0.5,

		PCIeLatency:       900 * time.Nanosecond,
		PCIeBandwidth:     62e9, // x8 Gen3 usable ≈ 7.8 GB/s
		PCIeSwitchLatency: 150 * time.Nanosecond,

		RDMAIssue:         400 * time.Nanosecond,
		RDMAEngine:        150 * time.Nanosecond,
		RDMARemotePenalty: 1500 * time.Nanosecond,
		RDMAReadBarrier:   5 * time.Microsecond,

		CudaMemcpyAsyncSetup: 7500 * time.Nanosecond,
		GdrcopySetup:         400 * time.Nanosecond,
		KernelLaunch:         10 * time.Microsecond,
		StreamSync:           5 * time.Microsecond,

		GPUMaxThreadblocks:       240,
		GPUPollInterval:          600 * time.Nanosecond,
		GPULocalAccess:           350 * time.Nanosecond,
		DynamicParallelismLaunch: 6 * time.Microsecond,

		LeNetServiceK40:   272 * time.Microsecond,
		LeNetServiceK80:   297 * time.Microsecond,
		FaceVerifyService: 50 * time.Microsecond,

		InnovaPipeline:     135 * time.Nanosecond,
		InnovaHelperRefill: 500 * time.Nanosecond,

		SGXTransition:        3500 * time.Nanosecond,
		VCABridgeKernelPath:  100 * time.Microsecond,
		SecureComputeService: 9 * time.Microsecond,

		MemcachedOpXeon:         2000 * time.Nanosecond,
		MemcachedBatchLatencyBF: 150 * time.Microsecond,

		LLCInterferenceP99:  1700 * time.Microsecond,
		LLCInterferenceProb: 0.012,
		NeighborSlowdown:    0.21,

		DispatchCost:   1300 * time.Nanosecond,
		ForwardCost:    1200 * time.Nanosecond,
		MQPollInterval: 1 * time.Microsecond,

		MQWatchdogTimeout: 5 * time.Millisecond,
	}
}

// TransferTime returns the serialization time of size bytes over a link of
// the given bandwidth in bits/second.
func TransferTime(size int, bandwidth float64) time.Duration {
	if bandwidth <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size*8) / bandwidth * 1e9)
}

// ScaleCPU scales a Xeon-calibrated CPU cost to the given core kind.
func ScaleCPU(cost time.Duration, kind CPUKind) time.Duration {
	return time.Duration(float64(cost) * kind.SpeedFactor())
}

// UDPCost returns the per-packet CPU cost for the given core and stack mode.
func (p *Params) UDPCost(kind CPUKind, bypass bool) time.Duration {
	var base time.Duration
	if bypass {
		base = p.UDPProcessVMA
	} else {
		base = p.UDPProcessKernel
		if kind == ARMCore {
			base = time.Duration(float64(base) * p.ARMSyscallPenalty)
		}
	}
	return ScaleCPU(base, kind)
}

// TCPCost returns the per-segment CPU cost for the given core and stack mode.
func (p *Params) TCPCost(kind CPUKind, bypass bool) time.Duration {
	if bypass {
		return time.Duration(float64(p.UDPCost(kind, true)) * p.TCPMultVMA)
	}
	return time.Duration(float64(p.UDPCost(kind, false)) * p.TCPMultKernel)
}
