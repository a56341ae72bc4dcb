// Package sentinel is the regression sentinel: it persists one release's
// attribution state as a versioned, byte-deterministic artifact and diffs two
// artifacts at the attribution level, so a perf regression report names the
// cause ("SNIC dispatch wait p99 +31%", "dispatcher utilization +0.12"), not
// just the symptom ("throughput down"). Artifacts are written by `lynxbench
// -baseline`, diffed by `lynxbench -compare`, and archived under bench/.
//
// The artifact bundles four planes, one schema version apiece removed from
// guesswork:
//
//   - the attribution report (internal/profile): per-phase wait/service
//     decomposition and the ranked bottleneck list at the Fig. 9 saturation
//     point;
//   - the scorecard outcome (internal/check): every claim's measured value
//     and pass/fail;
//   - the knee estimates: saturation points predicted from low-load probes
//     next to their measured counterparts;
//   - the rack telemetry sections: each node of the RF=3 replication rack
//     summarized from its own telemetry plane (span counts, event volume,
//     per-series monitor means), so a cross-node regression names the node.
//
// Go-benchmark samples are not a plane: they are compared only by
// cmd/benchcmp, between recordings made back to back on one machine.
package sentinel

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lynx/internal/profile"
)

// Version is the artifact schema version this package reads and writes.
// Read refuses other versions: a schema change must bump this and ship a
// fresh baseline, never reinterpret old bytes. Version 2 added the per-node
// rack telemetry sections.
const Version = 2

// Fingerprint identifies what an artifact measured. Two artifacts are
// comparable claim-for-claim only when their fingerprints match; Diff flags a
// mismatch instead of producing an apples-to-oranges report.
type Fingerprint struct {
	// Config summarizes the run configuration (seed, scale, batching) in a
	// stable human-readable form.
	Config string `json:"config"`
	// Scorecard is check.Scorecard.Fingerprint() — a digest of the claim set
	// the artifact was evaluated against.
	Scorecard string `json:"scorecard"`
}

// ClaimRow is one scorecard claim outcome frozen into the artifact.
type ClaimRow struct {
	ID     string  `json:"id"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Band   string  `json:"band"`
	Pass   bool    `json:"pass"`
}

// Knee pairs a predicted saturation point with its measured counterpart.
type Knee struct {
	// Name says which measured knee this predicts: "fig6" (BlueField, 240
	// mqueues, short requests) or "fig9" (attribution deployment).
	Name string `json:"name"`
	// Estimate is the low-load extrapolation (internal/profile).
	Estimate profile.KneeEstimate `json:"estimate"`
	// MeasuredPerSec is the closed-loop saturation throughput actually
	// measured on the same deployment.
	MeasuredPerSec float64 `json:"measured_per_sec"`
	// Ratio is predicted/measured — 1.0 is a perfect prediction.
	Ratio float64 `json:"ratio"`
}

// RackNode is one rack member's frozen telemetry-plane summary, measured on
// the RF=3 replication rack with the per-node observability plane armed.
// Every value derives from the node's own tracer/span-table/registry, so a
// cross-node attribution shift (a peer slowing down, an ingest ring backing
// up) is visible in the diff against the node that moved.
type RackNode struct {
	// Node is the rack member name ("server1"...).
	Node string `json:"node"`
	// SpansBegun/SpansClosed count the node's request spans (only the
	// measured primary sees client-closed spans).
	SpansBegun  uint64 `json:"spans_begun"`
	SpansClosed uint64 `json:"spans_closed"`
	// Events is the node's retained event-ring volume.
	Events int `json:"events"`
	// SeriesMean maps each monitor series of the node to its mean sample —
	// utilization and occupancy levels, including the repl/* series on nodes
	// that drive replication.
	SeriesMean map[string]float64 `json:"series_mean,omitempty"`
}

// Artifact is one release's frozen attribution state.
type Artifact struct {
	Version     int             `json:"version"`
	Fingerprint Fingerprint     `json:"fingerprint"`
	Report      *profile.Report `json:"report"`
	Scorecard   []ClaimRow      `json:"scorecard"`
	Knees       []Knee          `json:"knees,omitempty"`
	// Rack is the per-node telemetry summary of the RF=3 replication rack.
	Rack []RackNode `json:"rack,omitempty"`
}

// WriteJSON writes the artifact as indented JSON. Field order is fixed and
// every value derives from the deterministic simulation, so same-seed
// baselines are byte-identical.
func (a *Artifact) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFile dumps the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read loads an artifact, refusing schema version skew.
func Read(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("sentinel: %s: %w", path, err)
	}
	if a.Version != Version {
		return nil, fmt.Errorf("sentinel: %s is artifact version %d, this build reads version %d — record a fresh baseline",
			path, a.Version, Version)
	}
	return &a, nil
}
