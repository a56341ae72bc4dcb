package cluster

import (
	"fmt"
	"testing"
)

// owners snapshots shard -> member for the whole universe.
func owners(t *testing.T, m *ShardMap) []string {
	t.Helper()
	out := make([]string, m.Shards())
	for s := 0; s < m.Shards(); s++ {
		o, ok := m.Owner(s)
		if !ok {
			t.Fatalf("shard %d has no owner with members %v", s, m.Members())
		}
		out[s] = o
	}
	return out
}

func TestShardMapEveryShardOwnedExactlyOnce(t *testing.T) {
	m := NewShardMap(64)
	for i := 0; i < 4; i++ {
		if err := m.Join(fmt.Sprintf("server%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for _, o := range owners(t, m) {
		counts[o]++
	}
	total := 0
	for member, n := range counts {
		if n == 0 {
			t.Errorf("member %s owns no shards", member)
		}
		total += n
	}
	if total != m.Shards() {
		t.Fatalf("owned shards %d != universe %d", total, m.Shards())
	}
}

func TestShardMapJoinMovesShardsOnlyToJoiner(t *testing.T) {
	m := NewShardMap(64)
	for i := 0; i < 3; i++ {
		if err := m.Join(fmt.Sprintf("server%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := owners(t, m)
	if err := m.Join("server4"); err != nil {
		t.Fatal(err)
	}
	after := owners(t, m)
	moved := 0
	for s := range after {
		if after[s] != before[s] {
			moved++
			if after[s] != "server4" {
				t.Errorf("shard %d moved %s -> %s, not to the joiner", s, before[s], after[s])
			}
		}
	}
	if moved == 0 {
		t.Error("join moved no shards to the new member")
	}
}

func TestShardMapReplicasDistinctPrimaryFirst(t *testing.T) {
	m := NewShardMap(64)
	for i := 0; i < 5; i++ {
		if err := m.Join(fmt.Sprintf("server%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < m.Shards(); s++ {
		for rf := 1; rf <= 6; rf++ {
			reps := m.Replicas(s, rf)
			want := rf
			if want > 5 {
				want = 5
			}
			if len(reps) != want {
				t.Fatalf("shard %d rf %d: got %d replicas %v", s, rf, len(reps), reps)
			}
			owner, _ := m.Owner(s)
			if reps[0] != owner {
				t.Fatalf("shard %d: replicas %v do not start with owner %s", s, reps, owner)
			}
			seen := map[string]bool{}
			for _, r := range reps {
				if seen[r] {
					t.Fatalf("shard %d rf %d: duplicate replica in %v", s, rf, reps)
				}
				seen[r] = true
			}
		}
	}
}

func TestShardMapDeterministicAcrossHistories(t *testing.T) {
	// Same final membership via different join orders -> same assignment.
	a := NewShardMap(64)
	for _, n := range []string{"server1", "server2", "server3"} {
		if err := a.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	b := NewShardMap(64)
	for _, n := range []string{"server3", "server1", "server2"} {
		if err := b.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	ao, bo := owners(t, a), owners(t, b)
	for s := range ao {
		if ao[s] != bo[s] {
			t.Fatalf("shard %d differs across histories: %s vs %s", s, ao[s], bo[s])
		}
	}
}

func TestShardMapKeysSpreadAcrossMembers(t *testing.T) {
	m := NewShardMap(64)
	for i := 0; i < 3; i++ {
		if err := m.Join(fmt.Sprintf("server%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 512; i++ {
		o, ok := m.OwnerOf(fmt.Sprintf("key-%03d", i))
		if !ok {
			t.Fatal("no owner")
		}
		counts[o]++
	}
	for _, member := range m.Members() {
		if counts[member] == 0 {
			t.Errorf("member %s owns none of 512 keys (distribution %v)", member, counts)
		}
	}
}

func TestShardMapErrors(t *testing.T) {
	m := NewShardMap(0)
	if m.Shards() != DefaultShards {
		t.Fatalf("default shards = %d, want %d", m.Shards(), DefaultShards)
	}
	if _, ok := m.Owner(0); ok {
		t.Error("empty map claims an owner")
	}
	if err := m.Join(""); err == nil {
		t.Error("empty name joined")
	}
	if err := m.Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Join("a"); err == nil {
		t.Error("duplicate join accepted")
	}
}
