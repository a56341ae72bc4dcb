// Bounded virtual-time series and the metrics registry: the sampling half of
// the observability plane. A probe process (internal/core.Monitor) snapshots
// ring occupancy and component utilization into Series at a fixed virtual
// interval; the Registry unifies those series with per-component counter
// snapshots into one structured JSON dump.
package metrics

import (
	"encoding/json"
	"io"
	"time"
)

// SeriesPoint is one sample of a Series.
type SeriesPoint struct {
	// At is the virtual time of the sample (since boot).
	At time.Duration
	// V is the sampled value.
	V float64
}

// Series is a bounded virtual-time series: a ring keeping the most recent
// capacity samples (older ones are evicted, counted in Dropped). Appends
// never allocate after construction.
type Series struct {
	name    string
	ring    []SeriesPoint
	next    int
	total   uint64
	dropped uint64
}

// NewSeries creates a series retaining the most recent capacity samples.
func NewSeries(name string, capacity int) *Series {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Series{name: name, ring: make([]SeriesPoint, 0, capacity)}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Renamed returns a view of the series under a new name, sharing the sample
// storage as of the call (a snapshot: samples added to the original after
// Renamed may not appear). Rack rollups use it to prefix node names onto
// per-node series without copying rings.
func (s *Series) Renamed(name string) *Series {
	c := *s
	c.name = name
	return &c
}

// Add appends one sample, evicting the oldest when full.
func (s *Series) Add(at time.Duration, v float64) {
	pt := SeriesPoint{At: at, V: v}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, pt)
	} else {
		s.ring[s.next] = pt
		s.dropped++
	}
	s.next = (s.next + 1) % cap(s.ring)
	s.total++
}

// Points returns the retained samples in chronological order.
func (s *Series) Points() []SeriesPoint {
	if len(s.ring) == 0 {
		return nil
	}
	out := make([]SeriesPoint, 0, len(s.ring))
	if len(s.ring) < cap(s.ring) {
		return append(out, s.ring...)
	}
	out = append(out, s.ring[s.next:]...)
	return append(out, s.ring[:s.next]...)
}

// Len reports retained samples.
func (s *Series) Len() int { return len(s.ring) }

// Total reports samples ever added, including evicted ones.
func (s *Series) Total() uint64 { return s.total }

// Dropped reports samples evicted by the ring bound.
func (s *Series) Dropped() uint64 { return s.dropped }

// Last returns the most recent sample (zero value when empty).
func (s *Series) Last() SeriesPoint {
	if len(s.ring) == 0 {
		return SeriesPoint{}
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.ring) - 1
	}
	return s.ring[i]
}

// ---------------------------------------------------------------------------

// Stat is one named counter value in a component snapshot.
type Stat struct {
	Name  string
	Value float64
}

// Registry unifies per-component stats and sampled series into one
// structured dump. Components register a snapshot function once; the dump
// calls them at dump time, so it always reflects current counters.
type Registry struct {
	stats  []statSource
	series []*Series
}

type statSource struct {
	component string
	fn        func() []Stat
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// AddStats registers a component's counter snapshot function.
func (r *Registry) AddStats(component string, fn func() []Stat) {
	if r == nil || fn == nil {
		return
	}
	r.stats = append(r.stats, statSource{component: component, fn: fn})
}

// AddSeries registers an existing series.
func (r *Registry) AddSeries(s *Series) {
	if r == nil || s == nil {
		return
	}
	r.series = append(r.series, s)
}

// NewSeries creates, registers and returns a bounded series.
func (r *Registry) NewSeries(name string, capacity int) *Series {
	s := NewSeries(name, capacity)
	r.AddSeries(s)
	return s
}

// SeriesList returns the registered series in registration order.
func (r *Registry) SeriesList() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// ComponentStats is one component's evaluated counter snapshot.
type ComponentStats struct {
	Component string
	Stats     []Stat
}

// StatsSnapshot evaluates every registered snapshot function and returns the
// results in registration order. Rack rollups use it to freeze and re-home a
// node's counters under a prefixed component name.
func (r *Registry) StatsSnapshot() []ComponentStats {
	if r == nil {
		return nil
	}
	out := make([]ComponentStats, 0, len(r.stats))
	for _, src := range r.stats {
		out = append(out, ComponentStats{Component: src.component, Stats: src.fn()})
	}
	return out
}

// jsonPoint is the wire form of one sample (microseconds keep the dump
// aligned with Chrome trace timestamps).
type jsonPoint struct {
	TUs float64 `json:"t_us"`
	V   float64 `json:"v"`
}

// Dump writes the registry as JSON: {"stats": {component: {name: value}},
// "series": {name: [{t_us, v}]}, "dropped": {name: evicted}}. A series keeps
// only its most recent samples, so "dropped" names every series whose dump
// is missing older ones and how many; it is {} when nothing was evicted. Map
// keys are sorted by encoding/json, so the output is deterministic for
// deterministic inputs.
func (r *Registry) Dump(w io.Writer) error {
	stats := map[string]map[string]float64{}
	series := map[string][]jsonPoint{}
	dropped := map[string]uint64{}
	if r != nil {
		for _, src := range r.stats {
			m := stats[src.component]
			if m == nil {
				m = map[string]float64{}
				stats[src.component] = m
			}
			for _, st := range src.fn() {
				m[st.Name] = st.Value
			}
		}
		for _, s := range r.series {
			pts := make([]jsonPoint, 0, s.Len())
			for _, p := range s.Points() {
				pts = append(pts, jsonPoint{TUs: float64(p.At) / 1e3, V: p.V})
			}
			series[s.Name()] = pts
			if n := s.Dropped(); n > 0 {
				dropped[s.Name()] = n
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Stats   map[string]map[string]float64 `json:"stats"`
		Series  map[string][]jsonPoint        `json:"series"`
		Dropped map[string]uint64             `json:"dropped"`
	}{Stats: stats, Series: series, Dropped: dropped})
}
