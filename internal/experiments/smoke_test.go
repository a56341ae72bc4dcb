package experiments

import (
	"fmt"
	"testing"
)

// TestSmokeAll runs every registered experiment at reduced scale and prints
// the reports; it guards against harness regressions.
func TestSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	for _, id := range List() {
		if id == "fig6" || id == "fig8c" {
			continue // heavyweight sweeps, exercised by bench/lynxbench
		}
		r := runReport(t, Config{Seed: 1, Scale: 0.25}, id)
		if len(r.Rows) == 0 {
			t.Fatalf("%s: empty report", id)
		}
		fmt.Println(r)
	}
}
