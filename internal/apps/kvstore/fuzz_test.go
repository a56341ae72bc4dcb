package kvstore

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
)

// FuzzParse hardens the wire-facing protocol parser: arbitrary bytes must
// never panic, and anything Parse accepts must serve without panicking.
func FuzzParse(f *testing.F) {
	f.Add([]byte("get key\r\n"))
	f.Add([]byte("set k 1 0 3\r\nabc\r\n"))
	f.Add([]byte("delete k\r\n"))
	f.Add([]byte("set k 4294967295 0 0\r\n\r\n"))
	f.Add([]byte("get \r\n"))
	f.Add([]byte{0, 1, 2, 0xFF, '\r', '\n'})
	store := NewStore()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := Parse(data)
		if err != nil {
			return
		}
		if len(store.AppendServe(nil, data)) == 0 {
			t.Fatal("accepted request produced empty reply")
		}
		if req.Op == "set" {
			got, _, ok := store.Get(string(req.Key))
			if !ok || !bytes.Equal(got, req.Value) {
				t.Fatalf("set %q not readable back", req.Key)
			}
		}
	})
}

// FuzzDecodeValue hardens the client-side reply decoder the accelerator code
// runs on bytes received from the network.
func FuzzDecodeValue(f *testing.F) {
	f.Add([]byte("VALUE k 0 3\r\nabc\r\nEND\r\n"))
	f.Add([]byte("END\r\n"))
	f.Add([]byte("VALUE k 0 99999\r\nshort"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, ok, err := DecodeValue(data)
		if err == nil && ok && v == nil {
			t.Fatal("ok decode returned nil value")
		}
	})
}

// FuzzProtocolMatchesReference checks the allocation-lean protocol path
// against the fmt/bytes.Fields implementation it replaced, kept below as
// refParse, refServe and refDecodeValue: for every input Parse returns the
// same request and error text, AppendServe appends the same reply bytes
// after an untouched dst prefix, and DecodeValue returns the same value,
// verdict and error text. The reference panics on a set whose length
// overflows n+2; the lean path rejects it as a short body. A GET reply must
// be a copy, not a view of the stored value.
func FuzzProtocolMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"get key\r\n", "delete key\r\n", "set key 7 0 5\r\nhello\r\n",
		"get\tkey\r\n", "set\tk\t1\t0\t3\r\nabc\r\n", "get   key   \r\n",
		"  set  k  1  0  3  \r\nabc\r\n", "get\vkey\r\n", "get\fkey\r\n",
		"get\u0085key\r\n", "get\u00a0key\r\n", "\u0085get key\r\n",
		"set k 1 0 3\r\nab", "set k 1 0 3\r\nabc", "set k 1 0 3\r\nabc\r", "set k 1 0 0\r\n\r\n",
		"set k 1 0 9223372036854775807\r\nabc\r\n", "set k -1 0 3\r\nabc\r\n", "set k 1 0 -3\r\nabc\r\n",
		"set key 7 0 9\r\nlongvalue\r\n", "set key 7 0 1\r\nv\r\n",
		"get a\rb\r\n", "get a\nb\r\n", "GET key\r\n", "get \xff\r\n", "get k\xc2\r\n",
		"VALUE key 7 5\r\nhello\r\nEND\r\n", "VALUE\tk\t0\t3\r\nabc", "VALUE k 0 3 \r\nabc",
		"VALUE k 0 3\r\nab", "END\r\n", "END", "",
	} {
		f.Add([]byte(seed))
	}
	seeded := func() *Store {
		s := NewStore()
		s.Set("key", 7, []byte("hello"))
		s.Set("k", 1, nil)
		return s
	}
	lean, ref := seeded(), seeded()
	prefix := []byte("prefix:")
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(data)
		wr, werr, panicked := refParseRecover(data)
		if panicked {
			if err == nil || err.Error() != "kvstore: short body" {
				t.Fatalf("Parse(%q) = %v where the reference panics, want a short body error", data, err)
			}
		} else {
			if errText(err) != errText(werr) || r.Op != wr.Op || string(r.Key) != wr.Key || r.Flags != wr.Flags ||
				!bytes.Equal(r.Value, wr.Value) || (r.Value == nil) != (wr.Value == nil) {
				t.Fatalf("Parse(%q) = %+v, %v; reference %+v, %v", data, r, err, wr, werr)
			}
			got := lean.AppendServe(bytes.Clone(prefix), data)
			want := refServeRaw(ref, data)
			if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("AppendServe(%q, %q) = %q, reference reply %q", prefix, data, got, want)
			}
			if err == nil && r.Op == "get" && len(got) > len(prefix) {
				got[len(got)-1] ^= 0xff
				if again := lean.AppendServe(nil, data); !bytes.Equal(again, refServe(ref, wr)) {
					t.Fatalf("writing a GET reply changed the next one: %q", again)
				}
			}
		}
		v, ok, err := DecodeValue(data)
		wv, wok, werr := refDecodeValue(data)
		if !bytes.Equal(v, wv) || (v == nil) != (wv == nil) || ok != wok || errText(err) != errText(werr) {
			t.Fatalf("DecodeValue(%q) = %q, %v, %v; reference %q, %v, %v", data, v, ok, err, wv, wok, werr)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func refParseRecover(msg []byte) (r refRequest, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	r, err = refParse(msg)
	return r, err, false
}

// refRequest, refParse, refServe, refServeRaw and refDecodeValue are the
// protocol types and functions as they were before the allocation-lean
// rewrite.
type refRequest struct {
	Op    string
	Key   string
	Flags uint32
	Value []byte
}

func refParse(msg []byte) (refRequest, error) {
	var r refRequest
	head := msg
	if i := bytes.Index(msg, []byte("\r\n")); i >= 0 {
		head = msg[:i]
	} else {
		return r, fmt.Errorf("kvstore: missing CRLF")
	}
	fields := bytes.Fields(head)
	if len(fields) == 0 {
		return r, fmt.Errorf("kvstore: empty request")
	}
	r.Op = string(fields[0])
	switch r.Op {
	case "get":
		if len(fields) != 2 {
			return r, fmt.Errorf("kvstore: %s wants 1 key", r.Op)
		}
		r.Key = string(fields[1])
	case "set":
		if len(fields) != 5 {
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
		if len(body) < n+2 || !bytes.HasSuffix(body[:n+2], []byte("\r\n")) {
			return r, fmt.Errorf("kvstore: short body")
		}
		r.Value = body[:n]
	default:
		return r, fmt.Errorf("kvstore: unknown op %q", r.Op)
	}
	return r, nil
}

func refServe(s *Store, r refRequest) []byte {
	switch r.Op {
	case "get":
		v, flags, ok := s.Get(r.Key)
		if !ok {
			return []byte("END\r\n")
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "VALUE %s %d %d\r\n", r.Key, flags, len(v))
		b.Write(v)
		b.WriteString("\r\nEND\r\n")
		return b.Bytes()
	case "set":
		s.Set(r.Key, r.Flags, r.Value)
		return []byte("STORED\r\n")
	default:
		return []byte("ERROR\r\n")
	}
}

func refServeRaw(s *Store, msg []byte) []byte {
	r, err := refParse(msg)
	if err != nil {
		return []byte("CLIENT_ERROR " + err.Error() + "\r\n")
	}
	return refServe(s, r)
}

func refDecodeValue(reply []byte) (value []byte, ok bool, err error) {
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
	fields := bytes.Fields(reply[:i])
	if len(fields) != 4 {
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
