package kvstore

// Len reports stored items.
func (s *Store) Len() int { return len(s.items) }

// Bytes reports stored value bytes.
func (s *Store) Bytes() int { return s.bytes }
