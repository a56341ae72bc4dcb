package trace

import "time"

// ServiceIn returns the in-service share of one phase (duration minus wait);
// zero for incomplete spans, where phases are undefined.
func (s *Span) ServiceIn(p Phase) time.Duration {
	ph, ok := s.Phases()
	if !ok || p >= NumPhases {
		return 0
	}
	return ph[p] - s.WaitIn(p)
}

// Span returns a copy of the span for id, if the table still holds it.
func (t *SpanTable) Span(id uint64) (Span, bool) {
	if t == nil || id == 0 {
		return Span{}, false
	}
	s := t.slot(id)
	if s.ID != id {
		return Span{}, false
	}
	return *s, true
}
