package experiments

import (
	"testing"
)

// Acceptance: the kvstore service under 1% datagram loss keeps goodput at
// ≥90% of the zero-loss run thanks to client retransmits.
func TestDegradationGoodput(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.5} // 10ms windows
	clean := degradationCell{true, 0}.run(cfg)
	lossy := degradationCell{true, 0.01}.run(cfg)
	if clean.GoodputFraction() < 0.99 {
		t.Fatalf("zero-loss goodput %.3f — the clean run already drops", clean.GoodputFraction())
	}
	if g := lossy.GoodputFraction(); g < 0.9*clean.GoodputFraction() {
		t.Fatalf("1%% loss goodput %.3f, want ≥90%% of clean %.3f", g, clean.GoodputFraction())
	}
	if lossy.Retries == 0 {
		t.Fatal("no retransmits recorded at 1% loss")
	}
}

// The degradation experiment itself must be deterministic: same seed and
// loss rate, identical result.
func TestDegradationDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.25} // 5ms windows
	a := degradationCell{true, 0.01}.run(cfg)
	b := degradationCell{true, 0.01}.run(cfg)
	if a.String() != b.String() {
		t.Fatalf("nondeterministic degradation point:\n  %s\n  %s", a, b)
	}
}
