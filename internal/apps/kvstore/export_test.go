package kvstore

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key string) bool { return del(s, key) }

// Len reports stored items across shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.order.Len()
	}
	return n
}

// Bytes reports stored value bytes across shards.
func (s *Store) Bytes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.bytes
	}
	return n
}

// AppendDelete appends a delete request for key to dst.
func AppendDelete(dst []byte, key string) []byte {
	dst = append(dst, "delete "...)
	dst = append(dst, key...)
	return append(dst, "\r\n"...)
}
