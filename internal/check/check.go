// Package check is the repository's validation subsystem: cheap runtime
// invariant hooks (request/byte conservation, ring bounds, counter
// monotonicity, virtual-time sanity) and the machine-readable scorecard
// gate that turns the paper's evaluation shapes into regression tests.
//
// The package is a leaf: it imports nothing from the rest of the module, so
// every layer (sim, mqueue, fabric, netstack, core, snic, workload) can hold
// a *Checker without import cycles.
//
// All Checker methods are safe on a nil receiver and do nothing, so
// instrumented code follows one idiom:
//
//	if ck := cfg.Check; ck.Enabled() && rxHead-rxConsumed > slots {
//	    ck.Failf("mqueue.ring-bound", "q%d: head %d consumed %d", id, rxHead, rxConsumed)
//	}
//
// Disabled (nil) checkers cost a single pointer test on the hot path and
// zero allocations. Violations are only materialized when an invariant
// actually fails, so an enabled checker on a healthy run allocates only at
// finisher registration time.
package check

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// maxViolations bounds the violation list so a systematically broken run
// cannot accumulate unbounded garbage; the overflow is counted in Dropped.
const maxViolations = 64

// Violation is one failed invariant.
type Violation struct {
	// Kind names the invariant, dotted by layer: "mqueue.ring-bound",
	// "core.request-conservation", "netstack.datagram-conservation", ...
	Kind string
	// Detail is the formatted failure message.
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Checker accumulates invariant violations for one simulated cluster. The
// zero of *Checker (nil) is a disabled checker: every method is a no-op.
type Checker struct {
	mu          sync.Mutex
	violations  []Violation
	dropped     int
	finishers   []finisher
	finalized   bool
	onViolation func(Violation)
	fired       bool
}

type finisher struct {
	name string
	fn   func(fail func(format string, args ...any))
}

// New creates an enabled checker.
func New() *Checker { return &Checker{} }

// Enabled reports whether the checker records anything. It is the guard
// instrumented code uses before evaluating an invariant's condition.
func (c *Checker) Enabled() bool { return c != nil }

// SetOnViolation installs a hook invoked once, on the first recorded
// violation. The hook runs outside the checker's lock, so it may call back
// into the checker (Snapshot, Failf) or dump arbitrary state — this is how
// the profiler arms its postmortem flight-recorder dump. Last call wins.
// Nil-safe.
func (c *Checker) SetOnViolation(fn func(Violation)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.onViolation = fn
	c.mu.Unlock()
}

// Failf records a violation of the named invariant. Nil-safe.
func (c *Checker) Failf(kind, format string, args ...any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.failLocked(kind, format, args...)
	var fire func(Violation)
	var first Violation
	if !c.fired && c.onViolation != nil && len(c.violations) > 0 {
		c.fired = true
		fire, first = c.onViolation, c.violations[0]
	}
	c.mu.Unlock()
	if fire != nil {
		fire(first)
	}
}

func (c *Checker) failLocked(kind, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// AddFinisher registers an end-of-run check, evaluated once by Finalize
// (typically from the simulator's shutdown hook, when all in-flight state
// has settled). The fail callback records violations under the given name.
// Nil-safe.
func (c *Checker) AddFinisher(name string, fn func(fail func(format string, args ...any))) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishers = append(c.finishers, finisher{name: name, fn: fn})
}

// Finalize runs the registered finishers (once; later calls are no-ops) and
// returns the report. Nil-safe: a disabled checker reports an empty, passing
// report.
func (c *Checker) Finalize() Report {
	if c == nil {
		return Report{}
	}
	c.mu.Lock()
	fins := c.finishers
	run := !c.finalized
	c.finalized = true
	c.mu.Unlock()
	if run {
		for _, f := range fins {
			name := f.name
			f.fn(func(format string, args ...any) {
				c.Failf(name, format, args...)
			})
		}
	}
	return c.Snapshot()
}

// Snapshot returns the report so far without running finishers. Nil-safe.
func (c *Checker) Snapshot() Report {
	if c == nil {
		return Report{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Finishers:  len(c.finishers),
		Violations: append([]Violation(nil), c.violations...),
		Dropped:    c.dropped,
	}
	return r
}

// Report is the outcome of a checked run.
type Report struct {
	// Finishers is the number of end-of-run checks that were registered
	// (and, after Finalize, evaluated).
	Finishers int
	// Violations lists the recorded invariant failures, capped at
	// maxViolations.
	Violations []Violation
	// Dropped counts violations beyond the cap.
	Dropped int
}

// OK reports whether the run was violation-free.
func (r Report) OK() bool { return len(r.Violations) == 0 && r.Dropped == 0 }

// Merge folds o into r.
func (r Report) Merge(o Report) Report {
	r.Finishers += o.Finishers
	r.Dropped += o.Dropped
	for _, v := range o.Violations {
		if len(r.Violations) >= maxViolations {
			r.Dropped++
			continue
		}
		r.Violations = append(r.Violations, v)
	}
	return r
}

// String summarizes the report, grouping violations by kind.
func (r Report) String() string {
	if r.OK() {
		return fmt.Sprintf("invariants: ok (%d finishers, 0 violations)", r.Finishers)
	}
	byKind := map[string]int{}
	for _, v := range r.Violations {
		byKind[v.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "invariants: FAILED (%d violations", len(r.Violations))
	if r.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", r.Dropped)
	}
	b.WriteString(")")
	for _, k := range kinds {
		fmt.Fprintf(&b, "\n  %s (%d)", k, byKind[k])
	}
	for i, v := range r.Violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  - %s", v)
	}
	return b.String()
}

// Aggregate merges reports from many independently checked simulations (the
// parallel experiment sweeps): each sweep point finalizes its own Checker
// and Adds the result here. Aggregate is safe for concurrent use; a nil
// *Aggregate discards everything.
type Aggregate struct {
	mu     sync.Mutex
	report Report
	runs   int
}

// NewAggregate creates an empty aggregate.
func NewAggregate() *Aggregate { return &Aggregate{} }

// Enabled reports whether the aggregate collects anything. Nil-safe.
func (a *Aggregate) Enabled() bool { return a != nil }

// Add merges one run's report. Nil-safe.
func (a *Aggregate) Add(r Report) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.report = a.report.Merge(r)
	a.runs++
}

// Runs reports how many reports were merged. Nil-safe.
func (a *Aggregate) Runs() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runs
}

// Report returns the merged report. Nil-safe.
func (a *Aggregate) Report() Report {
	if a == nil {
		return Report{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.report
}
