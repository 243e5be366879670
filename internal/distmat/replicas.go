package distmat

import rt "slicing/internal/runtime"

// BroadcastReplica copies every tile from the origin replica into all other
// replicas (the broadcast_replica primitive). Collective: every PE must
// call it. Each PE pulls its own slot's tiles from the corresponding rank in
// the origin replica with one-sided gets, so no two-sided messaging is
// involved.
func (m *Matrix) BroadcastReplica(pe rt.PE, origin int) {
	if origin < 0 || origin >= m.replication {
		panic("distmat: broadcast origin replica out of range")
	}
	pe.Barrier() // origin data must be complete before anyone reads it
	if m.ReplicaOf(pe.Rank()) != origin {
		src := m.RankFor(m.SlotOf(pe.Rank()), origin)
		for _, idx := range m.OwnedTiles(pe.Rank()) {
			t := m.Tile(pe, idx, LocalReplica)
			pe.Get(t.Data, m.seg, src, m.TileOffset(idx))
		}
	}
	pe.Barrier()
}

// ReduceReplicas accumulates every replica's tiles into the origin replica
// (the reduce_replicas primitive): after the call, the origin replica holds
// the element-wise sum across all replicas. Other replicas are left with
// their partial values; follow with BroadcastReplica to make all replicas
// consistent. Collective.
func (m *Matrix) ReduceReplicas(pe rt.PE, origin int) {
	if origin < 0 || origin >= m.replication {
		panic("distmat: reduce origin replica out of range")
	}
	pe.Barrier() // all partial results must be in place
	if m.ReplicaOf(pe.Rank()) != origin {
		dst := m.RankFor(m.SlotOf(pe.Rank()), origin)
		for _, idx := range m.OwnedTiles(pe.Rank()) {
			t := m.Tile(pe, idx, LocalReplica)
			pe.AccumulateAdd(t.Data, m.seg, dst, m.TileOffset(idx))
		}
	}
	pe.Barrier()
}
