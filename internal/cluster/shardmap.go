// The shard map: consistent-hash membership and key placement for a rack.

package cluster

import (
	"fmt"
	"sort"
)

// DefaultShards is the shard-universe size when a ShardMap is created with a
// non-positive count. Shards are the unit of placement: keys hash to shards,
// shards map to nodes, so membership changes move shards, never single keys.
const DefaultShards = 64

// ringVnodes is the number of virtual points each member contributes to the
// hash ring. More points smooth the per-node shard counts; the value is part
// of the placement function and must not change without remapping the world.
const ringVnodes = 64

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash   uint64
	member string
	vnode  int
}

// ShardMap assigns a fixed universe of shards onto member nodes with a
// consistent-hash ring of virtual nodes. Transitions are minimal: a Join
// moves shards only onto the joining member. The map is deterministic —
// same membership, same assignment, whatever the join order — and purely
// computational (no simulation state), so the same code serves the
// simulated rack and its fuzz/chaos tests.
type ShardMap struct {
	shards  int
	members map[string]struct{}
	ring    []ringPoint
	// start[s] is the ring index owning shard s (valid while len(ring)>0).
	start []int
}

// NewShardMap creates an empty map over the given shard universe
// (DefaultShards when shards <= 0).
func NewShardMap(shards int) *ShardMap {
	if shards <= 0 {
		shards = DefaultShards
	}
	m := &ShardMap{shards: shards, members: make(map[string]struct{})}
	m.rebuild()
	return m
}

// Members returns the current membership, sorted.
func (m *ShardMap) Members() []string {
	out := make([]string, 0, len(m.members))
	for name := range m.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Join adds a member. Shards move only onto the new member.
func (m *ShardMap) Join(node string) error {
	if node == "" {
		return fmt.Errorf("cluster: empty member name")
	}
	if _, dup := m.members[node]; dup {
		return fmt.Errorf("cluster: member %q already joined", node)
	}
	m.members[node] = struct{}{}
	m.rebuild()
	return nil
}

// Owner returns the member owning the shard, or false when the map is empty.
func (m *ShardMap) Owner(shard int) (string, bool) {
	if len(m.ring) == 0 || shard < 0 || shard >= m.shards {
		return "", false
	}
	return m.ring[m.start[shard]].member, true
}

// Replicas returns up to rf distinct members for the shard in ring order,
// primary first. With fewer members than rf it returns them all.
func (m *ShardMap) Replicas(shard, rf int) []string {
	if len(m.ring) == 0 || shard < 0 || shard >= m.shards || rf <= 0 {
		return nil
	}
	if rf > len(m.members) {
		rf = len(m.members)
	}
	out := make([]string, 0, rf)
	for i := 0; i < len(m.ring) && len(out) < rf; i++ {
		member := m.ring[(m.start[shard]+i)%len(m.ring)].member
		if !contains(out, member) {
			out = append(out, member)
		}
	}
	return out
}

// ShardOf hashes a key into the shard universe.
func (m *ShardMap) ShardOf(key string) int {
	return int(mix64(fnv64(key)) % uint64(m.shards))
}

// ShardOfBytes is ShardOf without the string conversion, for the dispatch
// hot path's classifier (same hash, byte for byte).
func (m *ShardMap) ShardOfBytes(key []byte) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(mix64(h) % uint64(m.shards))
}

// OwnerOf returns the member owning the key's shard.
func (m *ShardMap) OwnerOf(key string) (string, bool) {
	return m.Owner(m.ShardOf(key))
}

// rebuild recomputes the ring and every shard's owning ring index. Members
// are iterated in sorted order and ties broken by (hash, member, vnode), so
// the result is a pure function of the membership set.
func (m *ShardMap) rebuild() {
	m.ring = m.ring[:0]
	for _, member := range m.Members() {
		h := fnv64(member)
		for v := 0; v < ringVnodes; v++ {
			m.ring = append(m.ring, ringPoint{
				hash:   mix64(h ^ (uint64(v)+1)*0x9e3779b97f4a7c15),
				member: member,
				vnode:  v,
			})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		a, b := m.ring[i], m.ring[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.member != b.member {
			return a.member < b.member
		}
		return a.vnode < b.vnode
	})
	if cap(m.start) < m.shards {
		m.start = make([]int, m.shards)
	}
	m.start = m.start[:m.shards]
	if len(m.ring) == 0 {
		return
	}
	for s := 0; s < m.shards; s++ {
		h := shardPoint(s)
		// First ring point at or clockwise-after the shard's point.
		i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
		m.start[s] = i % len(m.ring)
	}
}

// shardPoint positions shard s on the ring.
func shardPoint(s int) uint64 {
	return mix64(0x5368617264 ^ uint64(s)) // "Shard"
}

// fnv64 is FNV-1a over the string.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// mix64 is the murmur3 finalizer: FNV's low bits are too weak for ring
// placement on their own.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
