package cluster

import (
	"fmt"
	"testing"
)

// fuzzVerify checks the structural invariants that must hold after any
// sequence of membership transitions: every shard has exactly one owner and
// that owner is a live member (no lost and no double-owned shards), replica
// sets are distinct members led by the owner, and key placement agrees with
// shard placement.
func fuzzVerify(t *testing.T, m *ShardMap) {
	t.Helper()
	members := m.Members()
	live := map[string]bool{}
	for _, n := range members {
		live[n] = true
	}
	for s := 0; s < m.Shards(); s++ {
		o, ok := m.Owner(s)
		if len(members) == 0 {
			if ok {
				t.Fatalf("empty map owns shard %d via %q", s, o)
			}
			continue
		}
		if !ok {
			t.Fatalf("shard %d lost (members %v)", s, members)
		}
		if !live[o] {
			t.Fatalf("shard %d owned by departed member %q", s, o)
		}
		reps := m.Replicas(s, 3)
		if len(reps) == 0 || reps[0] != o {
			t.Fatalf("shard %d: replicas %v do not lead with owner %q", s, reps, o)
		}
		seen := map[string]bool{}
		for _, r := range reps {
			if !live[r] {
				t.Fatalf("shard %d: departed replica %q", s, r)
			}
			if seen[r] {
				t.Fatalf("shard %d: duplicate replica in %v", s, reps)
			}
			seen[r] = true
		}
	}
	if len(members) > 0 {
		key := "probe-key"
		o, ok := m.OwnerOf(key)
		if !ok || o != mustOwner(m, m.ShardOf(key)) {
			t.Fatalf("OwnerOf(%q) = %q,%v disagrees with Owner(ShardOf)", key, o, ok)
		}
	}
}

func mustOwner(m *ShardMap, shard int) string {
	o, _ := m.Owner(shard)
	return o
}

func fuzzSnapshot(m *ShardMap) []string {
	out := make([]string, m.Shards())
	for s := range out {
		out[s], _ = m.Owner(s)
	}
	return out
}

// FuzzShardMap drives random join sequences over random shard universes and
// asserts that no join loses or double-owns a shard, that a join moves
// shards only onto the joiner, and that Owner, Replicas and OwnerOf agree
// after each step.
func FuzzShardMap(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 1, 2})
	f.Add(uint8(0), []byte{0, 1, 0, 1, 0, 1})
	f.Add(uint8(7), []byte{2, 6, 10, 0, 1, 5, 9, 0})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, initial uint8, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		// The high bits pick the shard universe; 0 is DefaultShards.
		m := NewShardMap(int(initial >> 3))
		next := 0
		join := func() string {
			name := fmt.Sprintf("n%d", next)
			next++
			if err := m.Join(name); err != nil {
				t.Fatalf("join %s: %v", name, err)
			}
			return name
		}
		for i := 0; i < int(initial%8); i++ {
			join()
		}
		fuzzVerify(t, m)
		for _, b := range ops {
			if b%2 == 1 {
				// Membership no-op: verification only.
				fuzzVerify(t, m)
				continue
			}
			before := fuzzSnapshot(m)
			joined := join()
			for s, o := range fuzzSnapshot(m) {
				if before[s] != "" && o != before[s] && o != joined {
					t.Fatalf("join %s moved shard %d %s -> %s", joined, s, before[s], o)
				}
			}
			fuzzVerify(t, m)
		}
	})
}
