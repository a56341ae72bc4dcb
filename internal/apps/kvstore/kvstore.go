// Package kvstore implements the memcached-like key-value store used twice
// in the paper: as the database backend of the Face Verification server
// (§6.4) and as the co-located "typical server workload" of the CPU
// efficiency experiment (Fig. 9).
//
// The store speaks the memcached ASCII protocol subset (get/set/delete) and
// keeps an LRU-bounded sharded map.
package kvstore

import (
	"bytes"
	"container/list"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// Store is a sharded, LRU-bounded key-value store. It is not safe for OS
// concurrency: in the simulation all accesses happen under the scheduler's
// one-runnable-process invariant, matching memcached's per-shard locking.
type Store struct {
	shards []*shard
}

type shard struct {
	capacity int
	items    map[string]*list.Element
	order    *list.List // front = most recently used
	bytes    int
}

type entry struct {
	key   string
	flags uint32
	value []byte
}

// NewStore creates a store with the given shard count and per-shard item
// capacity (0 = unbounded).
func NewStore(shards, perShardCapacity int) *Store {
	if shards <= 0 {
		shards = 1
	}
	s := &Store{shards: make([]*shard, shards)}
	for i := range s.shards {
		s.shards[i] = &shard{
			capacity: perShardCapacity,
			items:    make(map[string]*list.Element),
			order:    list.New(),
		}
	}
	return s
}

// find hashes key to its shard and looks it up there. A []byte key is
// looked up in place: indexing the map with string(key) does not allocate.
func find[K ~string | ~[]byte](s *Store, key K) (*shard, *list.Element) {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	sh := s.shards[int(h)%len(s.shards)]
	return sh, sh.items[string(key)]
}

// Set stores a copy of value under key.
func (s *Store) Set(key string, flags uint32, value []byte) { set(s, key, flags, value) }

// set overwrites an existing key's value in place when its capacity allows;
// only a new key, which the store keeps, allocates for its name.
func set[K ~string | ~[]byte](s *Store, key K, flags uint32, value []byte) {
	sh, el := find(s, key)
	if el != nil {
		e := el.Value.(*entry)
		sh.bytes += len(value) - len(e.value)
		e.value, e.flags = append(e.value[:0], value...), flags
		sh.order.MoveToFront(el)
		return
	}
	k := string(key)
	el = sh.order.PushFront(&entry{key: k, flags: flags, value: append(make([]byte, 0, len(value)), value...)})
	sh.items[k] = el
	sh.bytes += len(value)
	if sh.capacity > 0 && sh.order.Len() > sh.capacity {
		oldest := sh.order.Back()
		e := oldest.Value.(*entry)
		sh.order.Remove(oldest)
		delete(sh.items, e.key)
		sh.bytes -= len(e.value)
	}
}

// Get fetches the value for key. The value is lent: it stays valid until
// the key's next Set or Delete, which may overwrite it in place, so a caller
// that keeps it longer must copy it.
func (s *Store) Get(key string) (value []byte, flags uint32, ok bool) { return get(s, key) }

func get[K ~string | ~[]byte](s *Store, key K) (value []byte, flags uint32, ok bool) {
	sh, el := find(s, key)
	if el == nil {
		return nil, 0, false
	}
	sh.order.MoveToFront(el)
	e := el.Value.(*entry)
	return e.value, e.flags, true
}

func del[K ~string | ~[]byte](s *Store, key K) bool {
	sh, el := find(s, key)
	if el == nil {
		return false
	}
	e := el.Value.(*entry)
	sh.order.Remove(el)
	delete(sh.items, e.key)
	sh.bytes -= len(e.value)
	return true
}

// ---------------------------------------------------------------------------
// memcached ASCII protocol

// Request is a parsed protocol request. Key and Value are views of the
// parsed message, valid as long as it is.
type Request struct {
	Op    string // "get", "set", "delete"
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
	opGet    = "get"
	opSet    = "set"
	opDelete = "delete"
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
	case opDelete:
		r.Op = opDelete
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
	switch r.Op {
	case opGet:
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
	case opSet:
		set(s, r.Key, r.Flags, r.Value)
		return append(dst, "STORED\r\n"...)
	default: // opDelete, the one op left: Parse rejects every other
		if del(s, r.Key) {
			return append(dst, "DELETED\r\n"...)
		}
		return append(dst, "NOT_FOUND\r\n"...)
	}
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
