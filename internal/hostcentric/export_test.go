package hostcentric

// Served reports completed requests.
func (sv *Server) Served() uint64 { return sv.served }
