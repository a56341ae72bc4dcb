package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"lynx/internal/sim"
)

// stampRepl walks one replicated write through the full path: the service
// stages plus repl-pushed/repl-acked between dispatch and the quorum stamp,
// with the quorum hold parking the response for holdUs µs after drain.
func stampRepl(t *SpanTable, id uint64, base sim.Time, holdUs int) {
	t.Begin(id, base)
	at := func(us int) sim.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	t.Stamp(id, StageSnicRecv, at(1))
	t.Stamp(id, StageDispatch, at(2))
	t.Stamp(id, StagePushed, at(3))
	t.Stamp(id, StageReplPushed, at(3))
	t.Stamp(id, StageAccelRecv, at(4))
	t.Stamp(id, StageAccelSent, at(5))
	t.Stamp(id, StageDrain, at(6))
	t.Stamp(id, StageReplAcked, at(6+holdUs/2))
	t.Stamp(id, StageQuorum, at(6+holdUs))
	t.AddWait(id, PhaseReplication, time.Duration(holdUs)*time.Microsecond)
	t.Stamp(id, StageForward, at(7+holdUs))
	t.Close(id, SpanDone, at(8+holdUs))
}

// TestSpanReplicationPhase: a quorum stamp carves the replication phase out
// of the SNIC hold (quorum − drain), the six phases still telescope to the
// end-to-end latency exactly, and the booked wait is clamped inside it.
func TestSpanReplicationPhase(t *testing.T) {
	tab := NewSpanTable(64)
	stampRepl(tab, 9, 100, 40)
	sp, ok := tab.Span(9)
	if !ok {
		t.Fatal("span 9 not retained")
	}
	phases, complete := sp.Phases()
	if !complete {
		t.Fatal("span incomplete")
	}
	if got, want := phases[PhaseReplication], 40*time.Microsecond; got != want {
		t.Fatalf("replication phase %v, want %v", got, want)
	}
	// SNIC keeps only its compute share: dispatch−snicRecv plus forward−quorum.
	if got, want := phases[PhaseSNIC], 2*time.Microsecond; got != want {
		t.Fatalf("snic phase %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range phases {
		sum += d
	}
	e2e, _ := sp.Latency(StageClientSend, StageClientRecv)
	if sum != time.Duration(e2e) {
		t.Fatalf("phases sum to %v, end-to-end %v", sum, time.Duration(e2e))
	}
	if w := sp.WaitIn(PhaseReplication); w != 40*time.Microsecond {
		t.Fatalf("replication wait %v, want 40µs", w)
	}
	if s := sp.ServiceIn(PhaseReplication); s != 0 {
		t.Fatalf("replication service %v, want 0 (the hold is pure wait)", s)
	}
}

// TestSpanNoQuorumNoReplicationPhase: without a quorum stamp (quorum met
// before the response drained, or no replication at all) the replication
// phase is zero and the original five-phase split is untouched.
func TestSpanNoQuorumNoReplicationPhase(t *testing.T) {
	tab := NewSpanTable(64)
	stampAll(tab, 4, 100)
	sp, _ := tab.Span(4)
	phases, complete := sp.Phases()
	if !complete {
		t.Fatal("span incomplete")
	}
	if phases[PhaseReplication] != 0 {
		t.Fatalf("replication phase %v without a quorum stamp", phases[PhaseReplication])
	}
	if tab.PhaseHist(PhaseReplication).Count() == 0 {
		t.Fatal("replication phase not fed to the histogram plane")
	}
	if tab.PhaseHist(PhaseReplication).Sum() != 0 {
		t.Fatal("nonzero replication time on the unreplicated path")
	}
}

// TestSpanReplicationStampsNilSafe: every replication-path entry point
// tolerates a nil table (tracing disabled).
func TestSpanReplicationStampsNilSafe(t *testing.T) {
	var tab *SpanTable
	tab.Begin(1, 0)
	tab.Stamp(1, StageReplPushed, 1)
	tab.Stamp(1, StageReplAcked, 2)
	tab.Stamp(1, StageQuorum, 3)
	tab.AddWait(1, PhaseReplication, time.Microsecond)
}

// TestReplEventKinds: the replication event kinds render with their
// payload labels.
func TestReplEventKinds(t *testing.T) {
	tr := New(16)
	tr.Emit(10, PeerKill, 1, 7)
	tr.Emit(20, QuorumShrink, 2, 3)
	tr.Emit(30, ReplRelease, 4, 5)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, want := range [][2]string{
		{"peer-kill", "peer=1 waived=7"},
		{"quorum-shrink", "live=2 quorum=3"},
		{"repl-release", "released=4 outstanding=5"},
	} {
		got := evs[i].String()
		if !strings.Contains(got, want[0]) || !strings.Contains(got, want[1]) {
			t.Errorf("event %d = %q, want %q and %q", i, got, want[0], want[1])
		}
	}
}

// TestExportQuorumHoldSlice: a span with a quorum stamp splits its SNIC
// forward slice into a quorum-hold and a forward part, and emits the
// repl:push / repl:ack-wait slices; an unreplicated span's export carries
// none of them.
func TestExportQuorumHoldSlice(t *testing.T) {
	tab := NewSpanTable(64)
	stampRepl(tab, 9, 100, 40)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Export{Spans: tab}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"snic:quorum-hold", "repl:push", "repl:ack-wait", "snic:forward"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export missing %q slice", want)
		}
	}

	plain := NewSpanTable(64)
	stampAll(plain, 4, 100)
	buf.Reset()
	if err := WriteJSON(&buf, Export{Spans: plain}); err != nil {
		t.Fatal(err)
	}
	for _, reject := range []string{"quorum-hold", "repl:"} {
		if strings.Contains(buf.String(), reject) {
			t.Errorf("unreplicated export contains %q", reject)
		}
	}
}

// TestRackExportPrefixesAndStride: each node's tracks land in its own pid
// block (i*8+1 ...) under "<node>/" prefixed names, and the export is
// deterministic. A one-node timeline is the single-server layout: no
// prefix, pids 1-7.
func TestRackExportPrefixesAndStride(t *testing.T) {
	mk := func() []Export {
		t1 := NewSpanTable(16)
		stampRepl(t1, 9, 100, 40)
		t2 := NewSpanTable(16)
		stampAll(t2, 4, 100)
		return []Export{
			{Name: "server1", Spans: t1},
			{Name: "server2", Spans: t2},
		}
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, mk()...); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, mk()...); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("rack export not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		`"name":"server1/snic"`, `"name":"server2/snic"`,
		`"pid":2`, `"pid":10`,
		`"name":"server1/snic:quorum-hold"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rack export missing %s", want)
		}
	}
	if strings.Contains(out, `"name":"server2/snic:quorum-hold"`) {
		t.Error("unreplicated node grew a quorum-hold slice")
	}

	t.Run("one node", func(t *testing.T) {
		one := mk()[:1]
		var got, single bytes.Buffer
		if err := WriteJSON(&got, one...); err != nil {
			t.Fatal(err)
		}
		one[0].Name = ""
		if err := WriteJSON(&single, one...); err != nil {
			t.Fatal(err)
		}
		if got.String() != single.String() {
			t.Error("a one-node timeline depends on the node name")
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Pid  int    `json:"pid"`
				Args struct {
					Name string `json:"name"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		pids := map[int]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Pid < 1 || ev.Pid > 7 {
				t.Errorf("%s on pid %d, want 1-7", ev.Name, ev.Pid)
			}
			if strings.HasPrefix(ev.Name, "server1/") || strings.HasPrefix(ev.Args.Name, "server1/") {
				t.Errorf("one-node track prefixed: %q %q", ev.Name, ev.Args.Name)
			}
			pids[ev.Pid] = true
		}
		if len(pids) != 7 {
			t.Errorf("one-node timeline uses %d pids, want 7", len(pids))
		}
	})
}
