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

func fnv32(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (s *Store) shard(key string) *shard {
	return s.shards[int(fnv32(key))%len(s.shards)]
}

// Set stores value under key.
func (s *Store) Set(key string, flags uint32, value []byte) {
	sh := s.shard(key)
	v := make([]byte, len(value))
	copy(v, value)
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry)
		sh.bytes += len(v) - len(e.value)
		e.value, e.flags = v, flags
		sh.order.MoveToFront(el)
		return
	}
	el := sh.order.PushFront(&entry{key: key, flags: flags, value: v})
	sh.items[key] = el
	sh.bytes += len(v)
	if sh.capacity > 0 && sh.order.Len() > sh.capacity {
		oldest := sh.order.Back()
		e := oldest.Value.(*entry)
		sh.order.Remove(oldest)
		delete(sh.items, e.key)
		sh.bytes -= len(e.value)
	}
}

// Get fetches the value for key.
func (s *Store) Get(key string) (value []byte, flags uint32, ok bool) {
	sh := s.shard(key)
	el, found := sh.items[key]
	if !found {
		return nil, 0, false
	}
	sh.order.MoveToFront(el)
	e := el.Value.(*entry)
	return e.value, e.flags, true
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key string) bool {
	sh := s.shard(key)
	el, found := sh.items[key]
	if !found {
		return false
	}
	e := el.Value.(*entry)
	sh.order.Remove(el)
	delete(sh.items, e.key)
	sh.bytes -= len(e.value)
	return true
}

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

// ---------------------------------------------------------------------------
// memcached ASCII protocol

// Request is a parsed protocol request.
type Request struct {
	Op    string // "get", "set", "delete"
	Key   string
	Flags uint32
	Value []byte
}

// EncodeGet renders a get request.
func EncodeGet(key string) []byte {
	return []byte("get " + key + "\r\n")
}

// EncodeSet renders a set request (exptime always 0).
func EncodeSet(key string, flags uint32, value []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "set %s %d 0 %d\r\n", key, flags, len(value))
	b.Write(value)
	b.WriteString("\r\n")
	return b.Bytes()
}

// EncodeDelete renders a delete request.
func EncodeDelete(key string) []byte {
	return []byte("delete " + key + "\r\n")
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
		r.Key = string(fields[1])
		return r, nil
	}
	if nf != 5 {
		return r, fmt.Errorf("kvstore: malformed set")
	}
	r.Key = string(fields[1])
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

// Serve applies a parsed request to the store and renders the reply.
func (s *Store) Serve(r Request) []byte {
	switch r.Op {
	case opGet:
		v, flags, ok := s.Get(r.Key)
		if !ok {
			return []byte("END\r\n")
		}
		return valueReply(r.Key, flags, v)
	case opSet:
		s.Set(r.Key, r.Flags, r.Value)
		return []byte("STORED\r\n")
	case opDelete:
		if s.Delete(r.Key) {
			return []byte("DELETED\r\n")
		}
		return []byte("NOT_FOUND\r\n")
	default:
		return []byte("ERROR\r\n")
	}
}

// valueReply renders a VALUE reply, "VALUE <key> <flags> <len>\r\n<v>\r\n
// END\r\n", into one freshly allocated slice of exactly its size.
func valueReply(key string, flags uint32, v []byte) []byte {
	var fb, lb [20]byte
	f := strconv.AppendUint(fb[:0], uint64(flags), 10)
	l := strconv.AppendInt(lb[:0], int64(len(v)), 10)
	const value, end = "VALUE ", "\r\nEND\r\n"
	b := make([]byte, 0, len(value)+len(key)+1+len(f)+1+len(l)+2+len(v)+len(end))
	b = append(b, value...)
	b = append(b, key...)
	b = append(b, ' ')
	b = append(b, f...)
	b = append(b, ' ')
	b = append(b, l...)
	b = append(b, "\r\n"...)
	b = append(b, v...)
	return append(b, end...)
}

// ServeRaw parses and serves a wire request.
func (s *Store) ServeRaw(msg []byte) []byte {
	r, err := Parse(msg)
	if err != nil {
		return []byte("CLIENT_ERROR " + err.Error() + "\r\n")
	}
	return s.Serve(r)
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
