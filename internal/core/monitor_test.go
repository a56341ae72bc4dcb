package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"lynx/internal/core"
	"lynx/internal/metrics"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
)

// monitorBed wires an echo runtime with a monitor attached, without driving
// any load yet.
func monitorBed(t *testing.T, interval time.Duration) (*bed, *core.Runtime, *metrics.Registry) {
	t.Helper()
	b := newBed(t, 1)
	rt := core.NewRuntime(b.bf.Platform(7))
	h, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddService(core.UDP, 7000, nil, 2, h); err != nil {
		t.Fatal(err)
	}
	// A non-zero kernel gives the GPU SMs busy time for the monitor to see.
	startEchoTBs(t, b, h, 5*time.Microsecond)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rt.StartMonitor(interval, reg)
	return b, rt, reg
}

// dumpJSON round-trips a registry dump through the JSON decoder.
func dumpJSON(t *testing.T, reg *metrics.Registry) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Dump(&buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	return m
}

// TestMonitorZeroDurationRun: a monitor on a runtime whose clock never
// advances records nothing, and the registry still dumps valid JSON.
func TestMonitorZeroDurationRun(t *testing.T) {
	b, _, reg := monitorBed(t, 50*time.Microsecond)
	defer b.tb.Sim.Shutdown()
	// No Run at all: zero virtual time elapses.
	for _, s := range reg.SeriesList() {
		if s.Len() != 0 {
			t.Errorf("series %s has %d samples after a zero-duration run", s.Name(), s.Len())
		}
	}
	m := dumpJSON(t, reg)
	if _, ok := m["series"]; !ok {
		t.Error("dump missing series section")
	}
	if _, ok := m["stats"]; !ok {
		t.Error("dump missing stats section")
	}
}

// TestMonitorIntervalLongerThanRun: the first sample would land after the
// run ends, so every series stays empty — but the series are registered and
// the dump is well-formed.
func TestMonitorIntervalLongerThanRun(t *testing.T) {
	b, _, reg := monitorBed(t, 10*time.Millisecond)
	b.tb.Sim.RunUntil(sim.Time(1 * time.Millisecond))
	b.tb.Sim.Shutdown()

	names := make(map[string]bool)
	for _, s := range reg.SeriesList() {
		names[s.Name()] = true
		if s.Len() != 0 {
			t.Errorf("series %s sampled %d times inside a run shorter than the interval", s.Name(), s.Len())
		}
	}
	for _, want := range []string{"snic/core-util", "snic/dispatch-util", "snic/backlog", "net/wire-util"} {
		if !names[want] {
			t.Errorf("series %s not registered", want)
		}
	}
	dumpJSON(t, reg)
}

// TestRegistryDumpNoSamples: a registry with registered-but-empty series and
// no stats sources dumps as empty maps, not null.
func TestRegistryDumpNoSamples(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.NewSeries("lonely/series", 8)
	m := dumpJSON(t, reg)
	series, ok := m["series"].(map[string]any)
	if !ok {
		t.Fatalf("series section = %T", m["series"])
	}
	pts, ok := series["lonely/series"].([]any)
	if !ok {
		t.Fatalf("empty series dumped as %T, want an array", series["lonely/series"])
	}
	if len(pts) != 0 {
		t.Fatalf("empty series dumped %d points", len(pts))
	}
}

// TestMonitorSamplesUtilizationUnderLoad: with traffic flowing, the core,
// dispatcher and wire utilization series all record in-range samples.
func TestMonitorSamplesUtilizationUnderLoad(t *testing.T) {
	b, rt, reg := monitorBed(t, 50*time.Microsecond)
	const n = 400
	var got int
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, []byte(fmt.Sprintf("ping-%03d", i)))
			cli.Recv(p)
			got++
		}
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return got == n })
	b.tb.Sim.Shutdown()
	if got != n {
		t.Fatalf("received %d/%d echoes", got, n)
	}
	if rt.SerialBusy() <= 0 {
		t.Fatal("runtime accumulated no serialized stack time under load")
	}
	// Every utilization series the monitor publishes must move under load: a
	// series pinned at zero reports a resource nothing accounts for.
	var utils int
	for _, s := range reg.SeriesList() {
		name := s.Name()
		if !strings.HasSuffix(name, "-util") {
			continue
		}
		utils++
		if s.Len() == 0 {
			t.Fatalf("series %s empty under load", name)
		}
		var nonzero bool
		for _, pt := range s.Points() {
			if pt.V < 0 || pt.V > 1 {
				t.Fatalf("series %s sample %v outside [0,1]", name, pt.V)
			}
			if pt.V > 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Errorf("series %s never left zero under load", name)
		}
	}
	if utils < 4 {
		t.Fatalf("monitor registered %d -util series, want at least 4 (SNIC cores, dispatcher, NIC wire, GPU SMs)", utils)
	}
}

func findSeries(reg *metrics.Registry, name string) *metrics.Series {
	for _, s := range reg.SeriesList() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}
