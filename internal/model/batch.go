package model

import "fmt"

// BatchConfig tunes end-to-end hot-path batching: how many RDMA work
// requests share one doorbell, how many completions (and TX-ring messages)
// one wakeup may drain, how many ready messages the dispatcher processes per
// scheduling quantum. It is the one knob set threaded through every layer —
// the public lynx.WithBatching option, experiments.Config and the lynxbench/
// lynxd -batch flag all carry this struct.
//
// The zero value means batch size 1 everywhere: exactly the per-message
// behavior of an unconfigured runtime, so existing callers are untouched.
// A simulation with the zero value (or the explicit all-ones config) is
// byte-identical to one built before batching existed.
type BatchConfig struct {
	// Doorbell is the number of RDMA work requests posted per doorbell
	// (multi-WQE posting): the CPU pays one issue cost per group instead of
	// per WQE. 0 means 1 (one doorbell per WQE).
	Doorbell int
	// CQDrain is the completion-drain budget per wakeup: the poster waits on
	// every CQDrain-th completion of a batch (RC completions are in posting
	// order, so a checkpoint CQE implies all preceding ones), and the MQ
	// manager drains up to CQDrain TX messages per ring visit with a single
	// spanning RDMA READ. 0 means 1 (one wakeup per completion).
	CQDrain int
	// Quantum is the dispatcher scheduling quantum: the number of ready
	// messages one dispatcher context processes per pass through the
	// serialized stack section. 0 means 1 (one dequeue per pass).
	Quantum int
}

// DefaultBatchConfig returns the tuned batching configuration used by the
// -exp batch sweep's "batched" rows: 8 WQEs per doorbell, a 16-message
// CQ/TX drain budget and a dispatcher quantum of 8.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{Doorbell: 8, CQDrain: 16, Quantum: 8}
}

// BatchConfigFromFlags assembles a BatchConfig from the -batch flag shared
// by lynxbench and lynxd: 0 means "unbatched" (the zero value), and N
// batches every layer by N. A negative N returns the Validate error.
func BatchConfigFromFlags(n int) (BatchConfig, error) {
	bc := BatchConfig{Doorbell: n, CQDrain: n, Quantum: n}
	return bc, bc.Validate()
}

// Validate checks the configuration. The zero value is valid (unit
// batching); any other configuration must set all three batch sizes to at
// least 1 — zero or negative budgets in a non-zero config are configuration
// bugs, not requests for "no batching".
func (b BatchConfig) Validate() error {
	if b == (BatchConfig{}) {
		return nil
	}
	if b.Doorbell < 1 {
		return fmt.Errorf("model: batch doorbell size %d: must be at least 1", b.Doorbell)
	}
	if b.CQDrain < 1 {
		return fmt.Errorf("model: batch CQ drain budget %d: must be at least 1", b.CQDrain)
	}
	if b.Quantum < 1 {
		return fmt.Errorf("model: batch dispatcher quantum %d: must be at least 1", b.Quantum)
	}
	return nil
}

// Unit reports whether the configuration batches nothing: every effective
// batch size is 1. The runtime takes the exact legacy per-message receive
// path for unit configurations, which is what makes "batch size 1 ≡
// unbatched" hold byte-for-byte.
func (b BatchConfig) Unit() bool {
	return b.EffDoorbell() == 1 && b.EffCQDrain() == 1 && b.EffQuantum() == 1
}

// EffDoorbell returns the effective doorbell group size (>= 1).
func (b BatchConfig) EffDoorbell() int { return effBatch(b.Doorbell) }

// EffCQDrain returns the effective completion/TX drain budget (>= 1).
func (b BatchConfig) EffCQDrain() int { return effBatch(b.CQDrain) }

// EffQuantum returns the effective dispatcher quantum (>= 1).
func (b BatchConfig) EffQuantum() int { return effBatch(b.Quantum) }

func effBatch(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// WithBatch returns p with bc installed on a copy, leaving p untouched; it
// is the one place a deployment's batching is applied. A bc that batches
// nothing, or a p that pins batching of its own, returns p itself: a sweep
// that compares configurations explicitly wins over a run-wide setting.
func (p *Params) WithBatch(bc BatchConfig) *Params {
	if bc.Unit() || p.Batch != (BatchConfig{}) {
		return p
	}
	c := *p
	c.Batch = bc
	return &c
}
