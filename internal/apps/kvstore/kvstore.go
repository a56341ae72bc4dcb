// Package kvstore implements the memcached-like key-value store used twice
// in the paper: as the database backend of the Face Verification server
// (§6.4) and as the co-located "typical server workload" of the CPU
// efficiency experiment (Fig. 9).
//
// The store speaks the memcached ASCII protocol subset get/set and keeps
// every key it is given: no workload outgrows it, so it evicts nothing.
package kvstore

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// Store is an unbounded key-value store. It is not safe for OS concurrency:
// in the simulation all accesses happen under the scheduler's
// one-runnable-process invariant.
type Store struct {
	items map[string]*entry
	bytes int
}

type entry struct {
	flags uint32
	value []byte
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{items: make(map[string]*entry)} }

// Set stores a copy of value under key.
func (s *Store) Set(key string, flags uint32, value []byte) { set(s, key, flags, value) }

// set overwrites an existing key's value in place when its capacity allows;
// only a new key, which the store keeps, allocates for its name. A []byte
// key is looked up in place: indexing the map with string(key) does not
// allocate.
func set[K ~string | ~[]byte](s *Store, key K, flags uint32, value []byte) {
	if e := s.items[string(key)]; e != nil {
		s.bytes += len(value) - len(e.value)
		e.value, e.flags = append(e.value[:0], value...), flags
		return
	}
	s.items[string(key)] = &entry{flags: flags, value: append(make([]byte, 0, len(value)), value...)}
	s.bytes += len(value)
}

// Get fetches the value for key. The value is lent: it stays valid until
// the key's next Set, which may overwrite it in place, so a caller that
// keeps it longer must copy it.
func (s *Store) Get(key string) (value []byte, flags uint32, ok bool) { return get(s, key) }

func get[K ~string | ~[]byte](s *Store, key K) (value []byte, flags uint32, ok bool) {
	e := s.items[string(key)]
	if e == nil {
		return nil, 0, false
	}
	return e.value, e.flags, true
}

// ---------------------------------------------------------------------------
// memcached ASCII protocol

// Request is a parsed protocol request. Key and Value are views of the
// parsed message, valid as long as it is.
type Request struct {
	Op    string // "get" or "set"
	Key   []byte
	Flags uint32
	Value []byte
}

// AppendGet appends a get request for key to dst.
func AppendGet(dst []byte, key string) []byte {
	dst = append(dst, "get "...)
	dst = append(dst, key...)
	return append(dst, "\r\n"...)
}

// AppendSet appends a set request (exptime always 0) to dst.
func AppendSet(dst []byte, key string, flags uint32, value []byte) []byte {
	dst = append(dst, "set "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, " 0 "...)
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, value...)
	return append(dst, "\r\n"...)
}

// Request operations. Parse sets Op to one of these constants for every
// known operation, so a parsed request carries no per-call op string.
const (
	opGet = "get"
	opSet = "set"
)

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts, the separators
// of bytes.Fields.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around runs of white space exactly like
// bytes.Fields, storing the first len(dst) fields in dst and returning the
// total count. An all-ASCII line, every well-formed request or reply line,
// splits without allocating; anything else goes through bytes.Fields, whose
// separators include multi-byte runes such as U+0085 and U+00A0.
func splitFields(line []byte, dst [][]byte) int {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			f := bytes.Fields(line)
			copy(dst, f)
			return len(f)
		}
	}
	n := 0
	for i := 0; i < len(line); {
		if asciiSpace[line[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(line) && !asciiSpace[line[j]] {
			j++
		}
		if n < len(dst) {
			dst[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

// Parse decodes one request from a message (one request per message, the
// framing every transport in this repository provides).
func Parse(msg []byte) (Request, error) {
	var r Request
	head := msg
	if i := bytes.Index(msg, []byte("\r\n")); i >= 0 {
		head = msg[:i]
	} else {
		return r, fmt.Errorf("kvstore: missing CRLF")
	}
	var fields [5][]byte // set, the longest request line, has 5
	nf := splitFields(head, fields[:])
	if nf == 0 {
		return r, fmt.Errorf("kvstore: empty request")
	}
	switch string(fields[0]) {
	case opGet:
		r.Op = opGet
	case opSet:
		r.Op = opSet
	default:
		r.Op = string(fields[0])
		return r, fmt.Errorf("kvstore: unknown op %q", r.Op)
	}
	if r.Op != opSet {
		if nf != 2 {
			return r, fmt.Errorf("kvstore: %s wants 1 key", r.Op)
		}
		r.Key = fields[1]
		return r, nil
	}
	if nf != 5 {
		return r, fmt.Errorf("kvstore: malformed set")
	}
	r.Key = fields[1]
	flags, err := strconv.ParseUint(string(fields[2]), 10, 32)
	if err != nil {
		return r, fmt.Errorf("kvstore: bad flags: %v", err)
	}
	r.Flags = uint32(flags)
	n, err := strconv.Atoi(string(fields[4]))
	if err != nil || n < 0 {
		return r, fmt.Errorf("kvstore: bad length")
	}
	body := msg[len(head)+2:]
	if n > len(body)-2 || !bytes.HasSuffix(body[:n+2], []byte("\r\n")) {
		return r, fmt.Errorf("kvstore: short body")
	}
	r.Value = body[:n]
	return r, nil
}

// AppendServe parses one wire request, applies it to the store and appends
// the reply to dst. Only a SET of a new key (whose name the store keeps), a
// SET that grows a value past its capacity and an error reply allocate.
func (s *Store) AppendServe(dst, msg []byte) []byte {
	r, err := Parse(msg)
	if err != nil {
		dst = append(dst, "CLIENT_ERROR "...)
		dst = append(dst, err.Error()...)
		return append(dst, "\r\n"...)
	}
	if r.Op == opSet {
		set(s, r.Key, r.Flags, r.Value)
		return append(dst, "STORED\r\n"...)
	}
	v, flags, ok := get(s, r.Key)
	if !ok {
		return append(dst, "END\r\n"...)
	}
	dst = append(dst, "VALUE "...)
	dst = append(dst, r.Key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(v)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, v...)
	return append(dst, "\r\nEND\r\n"...)
}

// DecodeValue extracts the value from a VALUE reply; ok=false on END-only
// (miss) replies.
func DecodeValue(reply []byte) (value []byte, ok bool, err error) {
	if bytes.HasPrefix(reply, []byte("END\r\n")) {
		return nil, false, nil
	}
	if !bytes.HasPrefix(reply, []byte("VALUE ")) {
		return nil, false, fmt.Errorf("kvstore: unexpected reply %q", firstLine(reply))
	}
	i := bytes.Index(reply, []byte("\r\n"))
	if i < 0 {
		return nil, false, fmt.Errorf("kvstore: truncated reply")
	}
	var fields [4][]byte
	if splitFields(reply[:i], fields[:]) != 4 {
		return nil, false, fmt.Errorf("kvstore: malformed VALUE line")
	}
	n, err := strconv.Atoi(string(fields[3]))
	if err != nil || n < 0 {
		return nil, false, fmt.Errorf("kvstore: bad VALUE length")
	}
	body := reply[i+2:]
	if len(body) < n {
		return nil, false, fmt.Errorf("kvstore: short VALUE body")
	}
	return body[:n], true, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\r'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}
