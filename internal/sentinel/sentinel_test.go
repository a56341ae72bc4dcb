package sentinel

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lynx/internal/profile"
)

// testArtifact builds a small but fully-populated artifact.
func testArtifact() *Artifact {
	return &Artifact{
		Version: Version,
		Fingerprint: Fingerprint{
			Config:    "seed=1 scale=0.25 batch=unit",
			Scorecard: "abcd1234",
		},
		Report: &profile.Report{
			SpansClosed: 100,
			EndToEnd:    profile.HistStats{Count: 100, P99Ns: 500_000},
			Phases: []profile.PhaseStats{
				{Phase: "network", Wait: profile.HistStats{P99Ns: 10_000}, Service: profile.HistStats{P99Ns: 5_000}},
				{Phase: "snic", Wait: profile.HistStats{P99Ns: 400_000}, Service: profile.HistStats{P99Ns: 20_000}},
				{Phase: "queueing", Wait: profile.HistStats{P99Ns: 0}, Service: profile.HistStats{P99Ns: 0}},
			},
			Bottlenecks: []profile.Bottleneck{
				{Resource: "dispatcher", Utilization: 0.95, QueueSlope: 10, WaitP99Ns: 400_000, Score: 0.96},
				{Resource: "accel/gpu0", Utilization: 0.20, QueueSlope: 0, Score: 0.20},
			},
		},
		Scorecard: []ClaimRow{
			{ID: "fig6.bf_240mq_short", Metric: "fig6.bf_240mq_short", Value: 8.0, Band: ">= 4.5", Pass: true},
			{ID: "sentinel.fig6_knee_ratio", Metric: "sentinel.fig6_knee_ratio", Value: 1.1, Band: "[0.7, 1.35]", Pass: true},
		},
		Knees: []Knee{
			{Name: "fig6", Estimate: profile.KneeEstimate{Valid: true, Resource: "dispatcher", Utilization: 0.28, ProbePerSec: 100e3, PredictedPerSec: 300e3}, MeasuredPerSec: 270e3, Ratio: 1.11},
		},
		Rack: []RackNode{
			{Node: "server1", SpansBegun: 288, SpansClosed: 280, Events: 1740,
				SeriesMean: map[string]float64{"snic/dispatch-util": 0.20, "repl/ingest-occupancy": 0.02}},
			{Node: "server2", SeriesMean: map[string]float64{"snic/dispatch-util": 0, "repl/ingest-occupancy": 0.02}},
		},
	}
}

// clone deep-copies an artifact through its JSON form.
func clone(t *testing.T, a *Artifact) *Artifact {
	t.Helper()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var out Artifact
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestArtifactRoundTripByteDeterministic(t *testing.T) {
	a := testArtifact()
	path := filepath.Join(t.TempDir(), "a.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf1, buf2 bytes.Buffer
	if err := a.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("artifact JSON not byte-stable across a write/read/write cycle")
	}
}

func TestReadRejectsVersionSkew(t *testing.T) {
	a := testArtifact()
	a.Version = Version + 1
	path := filepath.Join(t.TempDir(), "skew.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew not refused: %v", err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("corrupt artifact not refused")
	}
}

func TestDiffIdenticalArtifactsReportsNoChange(t *testing.T) {
	a := testArtifact()
	d := Diff(a, clone(t, a), Options{})
	if !d.Clean() {
		t.Fatalf("identical artifacts not clean: %s", d)
	}
	if d.Checked == 0 {
		t.Fatal("no comparisons performed")
	}
	if !strings.Contains(d.String(), "no change") {
		t.Fatalf("report does not say no change: %q", d.String())
	}
	// Byte-determinism of the rendered report for a fixed pair.
	if d.String() != Diff(a, clone(t, a), Options{}).String() {
		t.Fatal("diff rendering not deterministic")
	}
}

func TestDiffNamesTheMovedPhase(t *testing.T) {
	old := testArtifact()
	new_ := clone(t, old)
	new_.Report.Phases[1].Wait.P99Ns = 524_000 // snic wait p99 +31%
	d := Diff(old, new_, Options{})
	if d.Clean() {
		t.Fatal("out-of-band phase move not reported")
	}
	var f *Finding
	for i := range d.Findings {
		if d.Findings[i].Kind == "phase-wait" {
			f = &d.Findings[i]
		}
	}
	if f == nil || f.Subject != "snic" || !f.Regression {
		t.Fatalf("wrong attribution: %+v", d.Findings)
	}
	if !strings.Contains(f.String(), "REGRESSION") || !strings.Contains(f.String(), "snic") {
		t.Fatalf("rendered finding does not name the cause: %q", f.String())
	}
	// The same relative move downward is an improvement, not a regression.
	better := clone(t, old)
	better.Report.Phases[1].Wait.P99Ns = 276_000
	d = Diff(old, better, Options{})
	if len(d.Regressions()) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", d.Regressions())
	}
	if d.Clean() {
		t.Fatal("improvement should still be reported as a move")
	}
}

func TestDiffZeroWaitPhaseStaysQuiet(t *testing.T) {
	old := testArtifact()
	new_ := clone(t, old)
	// A zero-wait phase picking up sub-floor jitter is noise, not a finding.
	new_.Report.Phases[2].Wait.P99Ns = 1500
	if d := Diff(old, new_, Options{}); !d.Clean() {
		t.Fatalf("sub-floor move on a zero-wait phase reported: %s", d)
	}
	// But a real move on a formerly zero-wait phase is reported.
	new_.Report.Phases[2].Wait.P99Ns = 50_000
	d := Diff(old, new_, Options{})
	if d.Clean() || d.Findings[0].Subject != "queueing" {
		t.Fatalf("real move on zero-wait phase missed: %s", d)
	}
}

func TestDiffBottleneckAndScorecardAndKnee(t *testing.T) {
	old := testArtifact()
	new_ := clone(t, old)
	new_.Report.Bottlenecks[1].Utilization = 0.35 // +0.15 > UtilAbs
	new_.Scorecard[0].Value = 4.0                 // fell out of band
	new_.Scorecard[0].Pass = false
	new_.Knees[0].Estimate.PredictedPerSec = 200e3 // -33% > KneeFrac
	d := Diff(old, new_, Options{})
	kinds := map[string]Finding{}
	for _, f := range d.Findings {
		kinds[f.Kind] = f
	}
	if f, ok := kinds["bottleneck-util"]; !ok || f.Subject != "accel/gpu0" || !f.Regression {
		t.Fatalf("utilization move misattributed: %+v", d.Findings)
	}
	if f, ok := kinds["scorecard"]; !ok || f.Subject != "fig6.bf_240mq_short" || !f.Regression {
		t.Fatalf("claim flip misattributed: %+v", d.Findings)
	}
	if f, ok := kinds["knee"]; !ok || f.Subject != "fig6" || !f.Regression {
		t.Fatalf("knee move misattributed: %+v", d.Findings)
	}
	// Top-bottleneck change is its own finding.
	swapped := clone(t, old)
	swapped.Report.Bottlenecks[0], swapped.Report.Bottlenecks[1] = swapped.Report.Bottlenecks[1], swapped.Report.Bottlenecks[0]
	d = Diff(old, swapped, Options{})
	found := false
	for _, f := range d.Findings {
		if f.Kind == "bottleneck-rank" && strings.Contains(f.Detail, "dispatcher to accel/gpu0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("top-bottleneck change not reported: %+v", d.Findings)
	}
}

func TestDiffFingerprintMismatchNotComparable(t *testing.T) {
	old := testArtifact()
	new_ := clone(t, old)
	new_.Fingerprint.Scorecard = "feedbeef"
	d := Diff(old, new_, Options{})
	if d.Comparable || d.Clean() {
		t.Fatal("fingerprint mismatch must make the diff non-comparable")
	}
	if d.Findings[0].Kind != "fingerprint" {
		t.Fatalf("first finding %+v, want the fingerprint mismatch", d.Findings[0])
	}
	if !strings.Contains(d.String(), "not comparable") {
		t.Fatalf("report does not warn: %q", d.String())
	}
}

func TestDiffNamesTheDriftedRackNode(t *testing.T) {
	old := testArtifact()
	// A non-utilization series mean moving past ValueFrac on one node.
	new_ := clone(t, old)
	new_.Rack[1].SeriesMean["repl/ingest-occupancy"] = 0.5
	d := Diff(old, new_, Options{})
	if len(d.Findings) != 1 {
		t.Fatalf("want one rack finding, got %s", d)
	}
	if f := d.Findings[0]; f.Kind != "rack" || f.Subject != "server2" || f.Metric != "repl/ingest-occupancy" || !f.Regression {
		t.Fatalf("rack drift misattributed: %+v", f)
	}
	// A utilization series inside UtilAbs is noise; past it, a finding.
	util := clone(t, old)
	util.Rack[0].SeriesMean["snic/dispatch-util"] = 0.24
	if d := Diff(old, util, Options{}); !d.Clean() {
		t.Fatalf("in-band utilization move reported: %s", d)
	}
	util.Rack[0].SeriesMean["snic/dispatch-util"] = 0.30
	if d := Diff(old, util, Options{}); d.Clean() || d.Findings[0].Subject != "server1" {
		t.Fatalf("utilization drift missed: %s", d)
	}
	// Counts use the relative band: a node that starts seeing events moved.
	events := clone(t, old)
	events.Rack[1].Events = 10
	if d := Diff(old, events, Options{}); d.Clean() || d.Findings[0].Metric != "events" {
		t.Fatalf("event-volume drift missed: %s", d)
	}
	// A series missing on one side reads as zero.
	missing := clone(t, old)
	delete(missing.Rack[0].SeriesMean, "repl/ingest-occupancy")
	if d := Diff(old, missing, Options{}); d.Clean() || d.Findings[0].Metric != "repl/ingest-occupancy" || d.Findings[0].New != 0 {
		t.Fatalf("missing series not reported: %s", d)
	}
	// A node on one side only is a finding, in either direction.
	gone := clone(t, old)
	gone.Rack = gone.Rack[:1]
	for _, pair := range [][2]*Artifact{{old, gone}, {gone, old}} {
		d := Diff(pair[0], pair[1], Options{})
		if len(d.Findings) != 1 || d.Findings[0].Subject != "server2" || d.Findings[0].Metric != "node" {
			t.Fatalf("one-sided node not reported: %s", d)
		}
	}
}
