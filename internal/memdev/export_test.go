package memdev

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Stats reports cumulative access counters.
func (r *Region) Stats() (writes, reads uint64) { return r.writes, r.reads }

// Device returns the owning device name.
func (m *Memory) Device() string { return m.device }

// Region looks up a region by name.
func (m *Memory) Region(name string) (*Region, bool) {
	r, ok := m.regions[name]
	return r, ok
}

// Free releases a region's accounting (the region itself must no longer be
// used).
func (m *Memory) Free(name string) {
	if r, ok := m.regions[name]; ok {
		m.used -= r.Size()
		delete(m.regions, name)
	}
}

// Used reports allocated bytes.
func (m *Memory) Used() int { return m.used }
