package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSeriesBound(t *testing.T) {
	s := NewSeries("util", 4)
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Microsecond, float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", s.Len())
	}
	if s.Total() != 10 || s.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", s.Total(), s.Dropped())
	}
	pts := s.Points()
	for i, pt := range pts {
		if want := float64(6 + i); pt.V != want {
			t.Fatalf("point %d = %v, want %v (most recent, chronological)", i, pt.V, want)
		}
	}
	if last := s.Last(); last.V != 9 {
		t.Fatalf("last = %v, want 9", last.V)
	}
}

func TestSeriesAddNoAlloc(t *testing.T) {
	s := NewSeries("util", 64)
	var i int
	if allocs := testing.AllocsPerRun(500, func() {
		i++
		s.Add(time.Duration(i), float64(i))
	}); allocs != 0 {
		t.Fatalf("Add allocated %v/op", allocs)
	}
}

func TestRegistryDumpDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.AddStats("runtime", func() []Stat {
			return []Stat{{Name: "received", Value: 12}, {Name: "dropped", Value: 1}}
		})
		r.AddStats("rdma", func() []Stat {
			return []Stat{{Name: "ops", Value: 99}}
		})
		s := r.NewSeries("snic/core-util", 8)
		s.Add(time.Microsecond, 0.5)
		s.Add(2*time.Microsecond, 0.75)
		return r
	}
	var a, b bytes.Buffer
	if err := build().Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("registry dump is not deterministic")
	}

	var doc struct {
		Stats  map[string]map[string]float64   `json:"stats"`
		Series map[string][]map[string]float64 `json:"series"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if doc.Stats["runtime"]["received"] != 12 {
		t.Fatalf("runtime.received = %v, want 12", doc.Stats["runtime"]["received"])
	}
	if pts := doc.Series["snic/core-util"]; len(pts) != 2 || pts[1]["v"] != 0.75 {
		t.Fatalf("series points = %v", pts)
	}
}

// TestRegistryDumpReportsEvictions: a series that evicted samples says so in
// the dump, under its own name and under the name a rack rollup gives it.
func TestRegistryDumpReportsEvictions(t *testing.T) {
	dropped := func(r *Registry) map[string]uint64 {
		t.Helper()
		var buf bytes.Buffer
		if err := r.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Dropped map[string]uint64 `json:"dropped"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("dump is not valid JSON: %v", err)
		}
		if doc.Dropped == nil {
			t.Fatalf("dump has no \"dropped\" object:\n%s", buf.String())
		}
		return doc.Dropped
	}
	r := NewRegistry()
	if d := dropped(r); len(d) != 0 {
		t.Fatalf("empty registry dropped = %v, want {}", d)
	}
	s := r.NewSeries("snic/core-util", 2)
	r.NewSeries("snic/backlog", 8).Add(0, 1)
	for i := 0; i < 5; i++ {
		s.Add(time.Duration(i)*time.Microsecond, float64(i))
	}
	if d := dropped(r); len(d) != 1 || d["snic/core-util"] != 3 {
		t.Fatalf("dropped = %v, want {snic/core-util: 3}", d)
	}
	rack := NewRegistry()
	rack.AddSeries(s.Renamed("server1/" + s.Name()))
	if d := dropped(rack); len(d) != 1 || d["server1/snic/core-util"] != 3 {
		t.Fatalf("rollup dropped = %v, want {server1/snic/core-util: 3}", d)
	}
}

func TestHistogramSumAndBuckets(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Microsecond)
	h.Record(20 * time.Microsecond)
	h.Record(30 * time.Microsecond)
	if got := h.Sum(); got != 60*time.Microsecond {
		t.Fatalf("sum = %v, want 60µs (exact, not bucketed)", got)
	}
	var n uint64
	for _, b := range h.Buckets() {
		if b.Count == 0 {
			t.Fatal("Buckets returned an empty bucket")
		}
		n += b.Count
	}
	if n != h.Count() {
		t.Fatalf("bucket counts total %d, want %d", n, h.Count())
	}
}
