package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"lynx/internal/trace"
)

// TestReplicationIdentity pins ROADMAP item 1's RF-1 byte-identity claim from
// both directions. Metamorphic: the 1-node RF=1 rack built by
// internal/cluster must produce the exact measured result and runtime event
// trace of the hand-built single-server KV deployment (same seed, same
// workload) — the replication hooks must be invisible when dormant — and,
// with the observability plane armed on both sides, the rack's timeline and
// metrics rollup must be the single server's files byte for byte. Golden:
// the report and trace must match the committed artifacts, so any
// cross-release drift in the single-server event sequence shows up as a byte
// diff here too.
//
// To regenerate after an intentional semantic change (and say so in the
// commit message):
//
//	LYNX_UPDATE_GOLDENS=1 go test ./internal/experiments/ -run TestReplicationIdentity
func TestReplicationIdentity(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.25, Workers: 1}
	rack, single := replicationIdentity(cfg, true), replicationIdentity(cfg, false)
	rackTrace, singleTrace := identityEvents(rack), identityEvents(single)
	rackTimeline, rackMetrics := identityArtifacts(t, rack)
	singleTimeline, singleMetrics := identityArtifacts(t, single)

	rackCSV, singleCSV := rack.rep.CSV(), single.rep.CSV()
	if rackCSV != singleCSV {
		t.Errorf("RF=1 rack CSV diverges from the single-server deployment:\n%s",
			firstDiff(rackCSV, singleCSV))
	}
	rackEvents := strings.Join(rackTrace, "\n") + "\n"
	singleEvents := strings.Join(singleTrace, "\n") + "\n"
	if rackEvents != singleEvents {
		t.Errorf("RF=1 rack event trace diverges from the single-server deployment (%d vs %d events):\n%s",
			len(rackTrace), len(singleTrace), firstDiff(rackEvents, singleEvents))
	}
	if rackTimeline != singleTimeline {
		t.Errorf("RF=1 rack timeline diverges from the single server's (%d vs %d bytes):\n%s",
			len(rackTimeline), len(singleTimeline), firstDiff(rackTimeline, singleTimeline))
	}
	if rackMetrics != singleMetrics {
		t.Errorf("RF=1 rack metrics rollup diverges from the single server's registry dump (%d vs %d bytes):\n%s",
			len(rackMetrics), len(singleMetrics), firstDiff(rackMetrics, singleMetrics))
	}

	csvPath := "testdata/pr9_replication_identity_scale025_seed7.csv"
	tracePath := "testdata/pr9_replication_identity_scale025_seed7_trace.txt"
	if os.Getenv("LYNX_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(csvPath, []byte(rackCSV), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, []byte(rackEvents), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("goldens updated: %s, %s", csvPath, tracePath)
		return
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if rackCSV != string(wantCSV) {
		t.Errorf("replication identity CSV drifted from the PR 9 golden:\n%s",
			firstDiff(rackCSV, string(wantCSV)))
	}
	wantTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if rackEvents != string(wantTrace) {
		t.Errorf("replication identity trace drifted from the PR 9 golden (%d bytes, want %d):\n%s",
			len(rackEvents), len(wantTrace), firstDiff(rackEvents, string(wantTrace)))
	}
}

// identityEvents renders one side's runtime event ring, one event a line.
func identityEvents(o identityOutcome) []string {
	var out []string
	for _, ev := range o.prof.Events().Events() {
		out = append(out, ev.String())
	}
	return out
}

// identityArtifacts renders one side's plane as the timeline and metrics
// files lynxd and lynxbench write.
func identityArtifacts(t *testing.T, o identityOutcome) (timeline, metrics string) {
	t.Helper()
	var tl, md bytes.Buffer
	if err := trace.WriteJSON(&tl, o.nodes...); err != nil {
		t.Fatal(err)
	}
	if err := o.reg.Dump(&md); err != nil {
		t.Fatal(err)
	}
	if tl.Len() == 0 || md.Len() == 0 {
		t.Fatal("plane rendered an empty timeline or metrics dump")
	}
	return tl.String(), md.String()
}
