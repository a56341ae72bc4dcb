package fault

// Config returns the plan's configuration (with defaults filled).
func (pl *Plan) Config() Config {
	if pl == nil {
		return Config{}
	}
	return pl.cfg
}

// Enabled reports whether the plan injects anything.
func (pl *Plan) Enabled() bool { return pl != nil && pl.cfg.Enabled() }
