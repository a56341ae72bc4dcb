package cluster

// Shards returns the shard-universe size.
func (m *ShardMap) Shards() int { return m.shards }

// Nodes returns the node count.
func (r *Rack) Nodes() int { return len(r.nodes) }

// Replicas returns the rack's replication factor.
func (r *Rack) Replicas() int { return r.cfg.Replicas }

// Keys returns the preloaded key-universe size.
func (r *Rack) Keys() int { return r.cfg.Keys }

// ReplicaSet returns the node indices of key's replica set, primary first.
func (r *Rack) ReplicaSet(key string) []int {
	reps := r.Map.Replicas(r.Map.ShardOf(key), r.cfg.Replicas)
	out := make([]int, len(reps))
	for i, name := range reps {
		out[i] = r.nameIdx[name]
	}
	return out
}
