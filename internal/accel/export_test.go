package accel

// GPU returns the owning device.
func (tb *TB) GPU() *GPU { return tb.gpu }

// Ops reports driver-lock acquisitions (API call count).
func (d *Driver) Ops() uint64 { return d.ops }

// Launches reports kernels launched on the GPU (persistent + streams).
func (g *GPU) Launches() uint64 { return g.launches }
