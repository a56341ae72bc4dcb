package fault

// Enabled reports whether the plan injects anything.
func (pl *Plan) Enabled() bool { return pl != nil && pl.cfg.Enabled() }
