package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// cellValue parses the leading number from a report cell ("3.5K (2x)" ->
// 3500, "298.9µs" -> 298.9).
func cellValue(t *testing.T, r *Report, row, col string) float64 {
	t.Helper()
	cell, ok := r.Cell(row, col)
	if !ok {
		t.Fatalf("%s: missing cell (%q, %q)\n%s", r.ID, row, col, r)
	}
	s := strings.TrimSpace(cell)
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	mult := 1.0
	s = strings.TrimSuffix(s, "x")
	for _, suf := range []struct {
		s string
		m float64
	}{{"K", 1000}, {"M", 1e6}, {"ms", 1e3}, {"µs", 1}, {"ns", 1e-3}, {"s", 1e6}} {
		if strings.HasSuffix(s, suf.s) {
			mult = suf.m
			s = strings.TrimSuffix(s, suf.s)
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: unparseable cell %q", r.ID, cell)
	}
	return v * mult
}

func runExp(t *testing.T, id string, scale float64) *Report {
	t.Helper()
	return runReport(t, Config{Seed: 1, Scale: scale}, id)
}

// runReport runs one experiment through Run and returns its report.
func runReport(t *testing.T, cfg Config, id string) *Report {
	t.Helper()
	out, err := Run(cfg, id)
	if err != nil {
		t.Fatal(err)
	}
	return out.Reports[0]
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run(Config{}, "fig6", "no-such-experiment"); err == nil {
		t.Fatal("unknown id must error")
	}
	if len(List()) < 16 {
		t.Fatalf("only %d experiments registered", len(List()))
	}
	for _, id := range List() {
		if Describe(id) == "" {
			t.Errorf("%s has no description", id)
		}
	}
}

// The §3.2 anchor: ~30µs of management overhead on a 100µs kernel.
func TestInvocationOverheadShape(t *testing.T) {
	r := runExp(t, "sec3-invocation", 0.25)
	e2e := cellValue(t, r, "end-to-end latency", "measured")
	if e2e < 125 || e2e > 145 {
		t.Fatalf("E2E %vµs, paper ~130µs", e2e)
	}
}

// The noisy neighbor must inflate the host-centric tail by an order of
// magnitude and leave Lynx-on-BlueField untouched.
func TestIsolationShape(t *testing.T) {
	r := runExp(t, "sec62-isolation", 0.25)
	hc := cellValue(t, r, "host-centric (host CPU)", "inflation")
	bf := cellValue(t, r, "Lynx on BlueField", "inflation")
	if hc < 5 {
		t.Fatalf("host-centric inflation %vx, want ~13x", hc)
	}
	if bf > 1.2 {
		t.Fatalf("BlueField inflation %vx, want ~1x", bf)
	}
}

// Fig. 8a anchor: Lynx ~3.5K req/s > host-centric ~2.8K; p90 near 300µs.
func TestLeNetShape(t *testing.T) {
	r := runExp(t, "fig8a", 0.4)
	lynxTput := cellValue(t, r, "Lynx BlueField", "req/s")
	hcTput := cellValue(t, r, "Host-centric", "req/s")
	if lynxTput < 3200 || lynxTput > 3700 {
		t.Fatalf("Lynx LeNet %v req/s, paper 3.5K", lynxTput)
	}
	if hcTput < 2400 || hcTput > 3000 {
		t.Fatalf("host-centric LeNet %v req/s, paper 2.8K", hcTput)
	}
	if lynxTput <= hcTput {
		t.Fatal("Lynx must beat the host-centric baseline")
	}
	p90 := cellValue(t, r, "Lynx BlueField", "p90 low-load")
	if p90 < 270 || p90 > 330 {
		t.Fatalf("Lynx p90 %vµs, paper 300µs", p90)
	}
}

// Fig. 8b anchor: 12 GPUs scale linearly.
func TestScaleoutLinear(t *testing.T) {
	r := runExp(t, "fig8b", 0.3)
	t4 := cellValue(t, r, "4 local", "req/s")
	t12 := cellValue(t, r, "4 local + 8 remote", "req/s")
	ratio := t12 / t4
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("12/4 GPU scaling %.2fx, want ~3.0x", ratio)
	}
	if t12 < 33000 || t12 > 45000 {
		t.Fatalf("12-GPU throughput %v, paper ~40K", t12)
	}
}

// §6.2 Innova anchor: the FPGA path is an order of magnitude beyond
// BlueField, which is itself far beyond host-centric.
func TestInnovaOrdering(t *testing.T) {
	r := runExp(t, "sec62-innova", 0.3)
	innova := cellValue(t, r, "Innova FPGA (NICA AFU)", "pkt/s")
	bf := cellValue(t, r, "Lynx on BlueField", "pkt/s")
	hc := cellValue(t, r, "host-centric, 6 cores", "pkt/s")
	if innova < 8*bf {
		t.Fatalf("Innova %v vs BlueField %v: want >= 8x (paper 14.8x)", innova, bf)
	}
	if bf < 2*hc {
		t.Fatalf("BlueField %v vs host-centric %v: want >= 2x", bf, hc)
	}
	if innova < 4e6 {
		t.Fatalf("Innova %v pkt/s, paper 7.4M", innova)
	}
}

// §6.4 anchor: Lynx beats the host-centric multi-tier server severalfold.
func TestFaceVerifyShape(t *testing.T) {
	r := runExp(t, "sec64-faceverify", 0.3)
	hc := cellValue(t, r, "Host-centric", "req/s")
	bf := cellValue(t, r, "Lynx BlueField", "req/s")
	xeon := cellValue(t, r, "Lynx 6 Xeon cores", "req/s")
	if bf < 2.5*hc {
		t.Fatalf("BlueField speedup %.1fx, paper 4.4x", bf/hc)
	}
	if xeon < bf {
		t.Fatal("Xeon should beat BlueField (its TCP stack is faster, §6.4)")
	}
}

// §5.1 anchor: the barrier costs ~5µs per message.
func TestBarrierCostShape(t *testing.T) {
	r := runExp(t, "sec51-barrier", 0.25)
	extra := cellValue(t, r, "extra per message", "per-message delivery")
	if extra < 3.5 || extra > 7 {
		t.Fatalf("barrier extra %vµs, paper ~5µs", extra)
	}
}

// VCA anchor: Lynx several-fold below the bridge baseline at p90.
func TestVCAShape(t *testing.T) {
	r := runExp(t, "sec62-vca", 0.4)
	ratio := cellValue(t, r, "baseline/Lynx p90", "p90")
	if ratio < 3 || ratio > 8 {
		t.Fatalf("baseline/Lynx ratio %vx, paper 4.3x", ratio)
	}
	lynxP90 := cellValue(t, r, "Lynx (mqueue into mapped memory)", "p90")
	if lynxP90 < 25 || lynxP90 > 80 {
		t.Fatalf("Lynx p90 %vµs, paper 56µs", lynxP90)
	}
}

// Reports must be deterministic for a fixed seed.
func TestReportDeterminism(t *testing.T) {
	a := runExp(t, "fig8a", 0.25).String()
	b := runExp(t, "fig8a", 0.25).String()
	if a != b {
		t.Fatalf("nondeterministic report:\n%s\nvs\n%s", a, b)
	}
}

func TestReportFormatting(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	r.AddRow("row1", 1234.0, 150*time.Microsecond)
	r.AddRow("row2", "lit", 3.14)
	r.Note("hello %d", 7)
	s := r.String()
	for _, want := range []string{"=== x: t ===", "row1", "1.2K", "150µs", "lit", "3.14", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted report missing %q:\n%s", want, s)
		}
	}
	if _, ok := r.Cell("row1", "nope"); ok {
		t.Fatal("unknown column must miss")
	}
	if v, ok := r.Cell("row2", "a"); !ok || v != "lit" {
		t.Fatalf("cell lookup got %q", v)
	}
}

// Fig. 6's qualitative claims at one representative cell (200µs, 120 mq).
func TestFig6CellShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight sweep cell")
	}
	cfg := Config{Seed: 1, Scale: 0.25}
	hc := fig6Cell{platHostCentric, 200 * time.Microsecond, 120}.run(cfg)
	one := fig6Cell{platLynx1Xeon, 200 * time.Microsecond, 120}.run(cfg)
	six := fig6Cell{platLynx6Xeon, 200 * time.Microsecond, 120}.run(cfg)
	bf := fig6Cell{platLynxBF, 200 * time.Microsecond, 120}.run(cfg)
	if !(hc < one && one < bf && bf < six) {
		t.Fatalf("ordering violated: hc=%.0f one=%.0f bf=%.0f six=%.0f", hc, one, bf, six)
	}
	// §6.2: BlueField within ~45%% of six Xeon cores.
	if ratio := bf / six; ratio < 0.45 || ratio > 0.85 {
		t.Fatalf("BF/6-core ratio %.2f, paper ~0.55", ratio)
	}
}

// Fig. 7's anchor: the BF/Xeon latency gap closes as requests grow.
func TestFig7GapCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight sweep cell")
	}
	r := runExp(t, "fig7", 0.2)
	short, _ := r.Cell("5µs", "1mq")
	long, _ := r.Cell("1.6ms", "1mq")
	shortRatio := leadingFloat(t, short)
	longRatio := leadingFloat(t, long)
	if shortRatio < 1.2 || shortRatio > 1.7 {
		t.Fatalf("short-request ratio %v, paper ~1.4x", shortRatio)
	}
	if longRatio > 1.05 {
		t.Fatalf("long-request ratio %v should be ~1.0", longRatio)
	}
}

func leadingFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, 'x'); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q", s)
	}
	return v
}
