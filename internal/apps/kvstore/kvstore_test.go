package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("miss expected")
	}
	s.Set("k", 7, []byte("value"))
	v, flags, ok := s.Get("k")
	if !ok || string(v) != "value" || flags != 7 {
		t.Fatalf("got %q flags=%d ok=%v", v, flags, ok)
	}
	s.Set("k", 9, []byte("v2"))
	v, flags, _ = s.Get("k")
	if string(v) != "v2" || flags != 9 {
		t.Fatal("overwrite failed")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d after overwriting one key", s.Len())
	}
}

func TestValueIsolation(t *testing.T) {
	s := NewStore()
	buf := []byte("mutable")
	s.Set("k", 0, buf)
	buf[0] = 'X'
	v, _, _ := s.Get("k")
	if string(v) != "mutable" {
		t.Fatal("store must copy values")
	}
}

func TestBytesAccounting(t *testing.T) {
	s := NewStore()
	s.Set("a", 0, make([]byte, 100))
	s.Set("b", 0, make([]byte, 50))
	if s.Bytes() != 150 {
		t.Fatalf("bytes = %d", s.Bytes())
	}
	s.Set("a", 0, make([]byte, 10))
	if s.Bytes() != 60 {
		t.Fatalf("bytes after overwrite = %d", s.Bytes())
	}
}

// serve runs one wire request through AppendServe into a fresh reply.
func serve(s *Store, msg []byte) []byte { return s.AppendServe(nil, msg) }

func TestProtocolRoundTrip(t *testing.T) {
	s := NewStore()
	reply := serve(s, AppendSet(nil, "img:42", 3, []byte("FACEDATA")))
	if string(reply) != "STORED\r\n" {
		t.Fatalf("set reply %q", reply)
	}
	reply = serve(s, AppendGet(nil, "img:42"))
	v, ok, err := DecodeValue(reply)
	if err != nil || !ok || string(v) != "FACEDATA" {
		t.Fatalf("get reply %q -> %q ok=%v err=%v", reply, v, ok, err)
	}
	reply = serve(s, AppendGet(nil, "nope"))
	if _, ok, _ := DecodeValue(reply); ok {
		t.Fatal("miss must decode as !ok")
	}
}

// TestSetOverwritesInPlace: a GET after a SET of an existing key returns the
// new value, whether the SET fits the stored value's capacity (and reuses
// it) or grows past it.
func TestSetOverwritesInPlace(t *testing.T) {
	s := NewStore()
	s.Set("k", 0, []byte("0123456789"))
	for _, v := range []string{"short", "", "0123456789", "longer than the first value"} {
		if reply := serve(s, AppendSet(nil, "k", 5, []byte(v))); string(reply) != "STORED\r\n" {
			t.Fatalf("set %q: reply %q", v, reply)
		}
		got, ok, err := DecodeValue(serve(s, AppendGet(nil, "k")))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("after set %q: GET = %q ok=%v err=%v", v, got, ok, err)
		}
		if s.Bytes() != len(v) {
			t.Fatalf("after set %q: bytes = %d", v, s.Bytes())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "get\r\n", "get a b\r\n", "bogus x\r\n", "set k 0 0\r\n",
		"set k x 0 3\r\nabc\r\n", "set k 0 0 3\r\nab", "set k 0 0 zz\r\nabc\r\n",
		"get k", // no CRLF
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	reply := serve(NewStore(), []byte("nonsense\r\n"))
	if !bytes.HasPrefix(reply, []byte("CLIENT_ERROR")) {
		t.Fatalf("reply %q", reply)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	for _, bad := range []string{
		"WEIRD\r\n", "VALUE k 0\r\n", "VALUE k 0 zz\r\nabc", "VALUE k 0 10\r\nshort",
		"VALUE k 0 3", // no terminator
	} {
		if _, _, err := DecodeValue([]byte(bad)); err == nil {
			t.Errorf("DecodeValue(%q) should fail", bad)
		}
	}
}

// Property: for any key/value set, protocol round trips return exactly the
// stored bytes (binary-safe values included).
func TestProtocolProperty(t *testing.T) {
	prop := func(keys []uint16, vals [][]byte) bool {
		s := NewStore()
		shadow := map[string][]byte{}
		for i, k := range keys {
			key := fmt.Sprintf("key-%d", k)
			var val []byte
			if i < len(vals) {
				val = vals[i]
			}
			if bytes.Contains(val, []byte("\r\n")) {
				// The ASCII protocol length-prefixes bodies, so CRLF in
				// values is legal — keep it and exercise that path.
				_ = val
			}
			if string(serve(s, AppendSet(nil, key, 0, val))) != "STORED\r\n" {
				return false
			}
			shadow[key] = val
		}
		for key, want := range shadow {
			v, ok, err := DecodeValue(serve(s, AppendGet(nil, key)))
			if err != nil || !ok || !bytes.Equal(v, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolAllocCeilings pins the allocation-free protocol path: serving a
// GET hit, a GET miss or a SET of an existing key into a reply buffer with
// room allocates nothing, and neither does decoding a VALUE reply.
func TestProtocolAllocCeilings(t *testing.T) {
	s := NewStore()
	value := []byte("value-0123456789")
	s.Set("key-042", 0, value)
	dst := make([]byte, 0, 256)
	hit, miss := AppendGet(nil, "key-042"), AppendGet(nil, "key-999")
	set := AppendSet(nil, "key-042", 0, []byte("value-9876543210"))
	reply := s.AppendServe(nil, hit)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"GET hit", func() { s.AppendServe(dst, hit) }},
		{"GET miss", func() { s.AppendServe(dst, miss) }},
		{"SET existing", func() { s.AppendServe(dst, set) }},
		{"DecodeValue", func() { DecodeValue(reply) }},
	} {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, n)
		}
	}
}
