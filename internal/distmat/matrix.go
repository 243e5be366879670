package distmat

import (
	"fmt"
	"math/rand"

	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/tile"
)

// LocalReplica selects the calling PE's own replica in primitives that take
// a replica index, matching the optional replica_idx of Table 1.
const LocalReplica = -1

// Matrix is a distributed dense matrix: a shape, a Partition, and a
// replication factor c. The world's p PEs are divided into c replica groups
// of p/c slots each; every replica holds a complete copy of the matrix
// partitioned across its slots. Tiles live in symmetric memory and are
// accessed with one-sided operations only.
type Matrix struct {
	world       rt.World
	rows, cols  int
	part        Partition
	replication int
	slots       int
	grid        index.Grid

	seg        rt.SegmentID
	tileOffset [][]int // [tileRow][tileCol] -> offset in owner slot's segment
	ownerSlot  [][]int // [tileRow][tileCol] -> slot
	ownerHash  uint64  // see OwnerHash
}

// New allocates a distributed rows×cols matrix with the given partition
// and replication factor. The replication factor must divide the number of
// PEs. The allocator is either the rt.World (host-side allocation
// before World.Run) or a *shmem.PE (collective allocation from inside a PE
// body, in which case every PE must call New in the same order).
func New(alloc rt.Allocator, rows, cols int, part Partition, replication int) *Matrix {
	w := alloc.World()
	p := w.NumPE()
	if replication <= 0 || p%replication != 0 {
		panic(fmt.Sprintf("distmat: replication %d does not divide %d PEs", replication, p))
	}
	slots := p / replication
	grid := part.Grid(rows, cols, slots)
	tr, tc := grid.GridShape()

	tileOffset := make([][]int, tr)
	ownerSlot := make([][]int, tr)
	slotSize := make([]int, slots)
	hash := fnvMix(fnvMix(fnvOffset64, uint64(tr)), uint64(tc))
	for r := 0; r < tr; r++ {
		tileOffset[r] = make([]int, tc)
		ownerSlot[r] = make([]int, tc)
		for c := 0; c < tc; c++ {
			idx := index.TileIdx{Row: r, Col: c}
			slot := part.OwnerSlot(grid, idx, slots)
			if slot < 0 || slot >= slots {
				panic(fmt.Sprintf("distmat: partition %s assigned tile %v to slot %d of %d",
					part.Name(), idx, slot, slots))
			}
			ownerSlot[r][c] = slot
			hash = fnvMix(hash, uint64(slot))
			tileOffset[r][c] = slotSize[slot]
			slotSize[slot] += grid.TileBounds(idx).Area()
		}
	}
	maxSize := 0
	for _, s := range slotSize {
		if s > maxSize {
			maxSize = s
		}
	}

	return &Matrix{
		world: w, rows: rows, cols: cols, part: part, replication: replication,
		slots: slots, grid: grid,
		seg:        alloc.AllocSymmetric(maxSize),
		tileOffset: tileOffset, ownerSlot: ownerSlot, ownerHash: hash,
	}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a running hash, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// OwnerHash is an FNV-1a fold of the tile-grid shape and the row-major
// tile→owner-slot table: two matrices on the same grid have equal hashes
// exactly when (barring collisions) they assign every tile to the same
// slot. The layout is fixed at New, so the hash is computed there once.
func (m *Matrix) OwnerHash() uint64 { return m.ownerHash }

// Rows returns the global row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the global column count.
func (m *Matrix) Cols() int { return m.cols }

// Partition returns the matrix's partition object.
func (m *Matrix) Partition() Partition { return m.part }

// Replication returns the replication factor c.
func (m *Matrix) Replication() int { return m.replication }

// Slots returns the number of replica-local slots (p / c).
func (m *Matrix) Slots() int { return m.slots }

// World returns the world the matrix is distributed over.
func (m *Matrix) World() rt.World { return m.world }

// GridShape returns the tile-grid shape (the grid_shape() primitive).
func (m *Matrix) GridShape() (tileRows, tileCols int) { return m.grid.GridShape() }

// Grid returns the matrix's tile grid.
func (m *Matrix) Grid() index.Grid { return m.grid }

// TileBounds returns the global index rectangle of tile idx (tile_bounds).
func (m *Matrix) TileBounds(idx index.TileIdx) index.Rect { return m.grid.TileBounds(idx) }

// OverlappingTiles returns the tiles intersecting slice (overlapping_tiles).
func (m *Matrix) OverlappingTiles(slice index.Rect) []index.TileIdx {
	return m.grid.OverlappingTiles(slice)
}

// AppendOverlappingTiles appends the tiles intersecting slice to dst
// (index.Grid.AppendOverlappingTiles), for callers that reuse dst.
func (m *Matrix) AppendOverlappingTiles(dst []index.TileIdx, slice index.Rect) []index.TileIdx {
	return m.grid.AppendOverlappingTiles(dst, slice)
}

// ReplicaOf returns the replica group a rank belongs to.
func (m *Matrix) ReplicaOf(rank int) int { return rank / m.slots }

// SlotOf returns a rank's replica-local slot.
func (m *Matrix) SlotOf(rank int) int { return rank % m.slots }

// RankFor returns the rank holding (slot, replica).
func (m *Matrix) RankFor(slot, replica int) int { return replica*m.slots + slot }

// OwnerSlot returns the replica-local slot owning tile idx.
func (m *Matrix) OwnerSlot(idx index.TileIdx) int {
	m.checkTile(idx)
	return m.ownerSlot[idx.Row][idx.Col]
}

// OwnerRank returns the rank holding tile idx in the given replica. A
// replica of LocalReplica is resolved against callerRank's replica.
func (m *Matrix) OwnerRank(idx index.TileIdx, replica, callerRank int) int {
	rep := m.resolveReplica(replica, callerRank)
	return m.RankFor(m.OwnerSlot(idx), rep)
}

// OwnedTiles returns, in row-major order, the tiles rank holds in its own
// replica.
func (m *Matrix) OwnedTiles(rank int) []index.TileIdx {
	tr, tc := m.grid.GridShape()
	var out []index.TileIdx
	slot := m.SlotOf(rank)
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			if m.ownerSlot[r][c] == slot {
				out = append(out, index.TileIdx{Row: r, Col: c})
			}
		}
	}
	return out
}

// TileOffset returns the element offset of tile idx inside its owner's
// segment. Exposed for the communication backends.
func (m *Matrix) TileOffset(idx index.TileIdx) int {
	m.checkTile(idx)
	return m.tileOffset[idx.Row][idx.Col]
}

// Segment returns the matrix's symmetric segment ID.
func (m *Matrix) Segment() rt.SegmentID { return m.seg }

// Tile returns a zero-copy view of tile idx (the tile() primitive). The
// tile must be owned by pe within the requested replica; remote tiles need
// GetTile. Writes through the view modify symmetric memory directly.
func (m *Matrix) Tile(pe rt.PE, idx index.TileIdx, replica int) *tile.Matrix {
	owner := m.OwnerRank(idx, replica, pe.Rank())
	if owner != pe.Rank() {
		panic(fmt.Sprintf("distmat: Tile(%v) is held by rank %d, not caller %d; use GetTile",
			idx, owner, pe.Rank()))
	}
	b := m.grid.TileBounds(idx)
	rows, cols := b.Shape()
	off := m.tileOffset[idx.Row][idx.Col]
	return tile.FromSlice(rows, cols, pe.Local(m.seg)[off:off+rows*cols])
}

// TileInto fills dst with the zero-copy view of tile idx (the same view
// Tile returns) without allocating, for hot paths that keep tile headers in
// recycled storage. The tile must be owned by pe within the requested
// replica.
func (m *Matrix) TileInto(pe rt.PE, dst *tile.Matrix, idx index.TileIdx, replica int) {
	owner := m.OwnerRank(idx, replica, pe.Rank())
	if owner != pe.Rank() {
		panic(fmt.Sprintf("distmat: TileInto(%v) is held by rank %d, not caller %d; use GetTile",
			idx, owner, pe.Rank()))
	}
	b := m.grid.TileBounds(idx)
	rows, cols := b.Shape()
	off := m.tileOffset[idx.Row][idx.Col]
	*dst = tile.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: pe.Local(m.seg)[off : off+rows*cols]}
}

// GetTile returns a fresh local copy of tile idx from the given replica
// (get_tile). Pass LocalReplica to read from the caller's own replica.
func (m *Matrix) GetTile(pe rt.PE, idx index.TileIdx, replica int) *tile.Matrix {
	b := m.grid.TileBounds(idx)
	rows, cols := b.Shape()
	dst := tile.New(rows, cols)
	owner := m.OwnerRank(idx, replica, pe.Rank())
	pe.Get(dst.Data, m.seg, owner, m.tileOffset[idx.Row][idx.Col])
	return dst
}

// GetTileInto copies tile idx into a caller-provided buffer matrix of the
// right shape, allowing pooled allocation in the hot path.
func (m *Matrix) GetTileInto(pe rt.PE, dst *tile.Matrix, idx index.TileIdx, replica int) {
	b := m.grid.TileBounds(idx)
	rows, cols := b.Shape()
	if dst.Rows != rows || dst.Cols != cols || !dst.IsDense() {
		panic(fmt.Sprintf("distmat: GetTileInto needs dense %dx%d buffer, got %v", rows, cols, dst))
	}
	owner := m.OwnerRank(idx, replica, pe.Rank())
	pe.Get(dst.Data, m.seg, owner, m.tileOffset[idx.Row][idx.Col])
}

// TileFuture is an in-flight asynchronous tile copy: Wait, then read Tile.
type TileFuture struct {
	Tile   *tile.Matrix
	future rt.Future
}

// Wait blocks until the tile copy has landed and returns the tile.
func (f *TileFuture) Wait() *tile.Matrix {
	f.future.Wait()
	return f.Tile
}

// Done reports whether the copy has completed.
func (f *TileFuture) Done() bool { return f.future.Done() }

// GetTileAsync starts an asynchronous copy of tile idx (get_tile_async) and
// returns a future. If the tile is local the future is already complete and
// the Tile is a zero-copy view, mirroring the local fast path of §4.2.
func (m *Matrix) GetTileAsync(pe rt.PE, idx index.TileIdx, replica int) *TileFuture {
	owner := m.OwnerRank(idx, replica, pe.Rank())
	if owner == pe.Rank() {
		return &TileFuture{Tile: m.Tile(pe, idx, replica), future: rt.CompletedFuture()}
	}
	b := m.grid.TileBounds(idx)
	rows, cols := b.Shape()
	dst := tile.New(rows, cols)
	f := pe.GetAsync(dst.Data, m.seg, owner, m.tileOffset[idx.Row][idx.Col])
	return &TileFuture{Tile: dst, future: f}
}

// GetTileIntoAsync starts an asynchronous copy of tile idx into dst — a
// dense buffer matrix of the tile's exact shape, typically recycled from a
// pool — and fills f with the in-flight future. It is the allocation-free
// variant of GetTileAsync: both the destination buffer and the future
// header are caller-owned, so the steady-state execution loop performs no
// per-fetch allocation. Unlike GetTileAsync there is no zero-copy local
// shortcut; the tile always lands in dst.
func (m *Matrix) GetTileIntoAsync(pe rt.PE, f *TileFuture, dst *tile.Matrix, idx index.TileIdx, replica int) {
	b := m.grid.TileBounds(idx)
	rows, cols := b.Shape()
	if dst.Rows != rows || dst.Cols != cols || !dst.IsDense() {
		panic(fmt.Sprintf("distmat: GetTileIntoAsync needs dense %dx%d buffer, got %v", rows, cols, dst))
	}
	owner := m.OwnerRank(idx, replica, pe.Rank())
	f.Tile = dst
	f.future = pe.GetAsync(dst.Data, m.seg, owner, m.tileOffset[idx.Row][idx.Col])
}

// GetSubTileIntoAsync starts an asynchronous copy of the sub-rectangle sub
// (global coordinates) of tile idx into dst, a caller-owned buffer (see
// GetTileIntoAsync). dst must be dense with sub's exact shape.
func (m *Matrix) GetSubTileIntoAsync(pe rt.PE, f *TileFuture, dst *tile.Matrix, idx index.TileIdx, replica int, sub index.Rect) {
	b := m.grid.TileBounds(idx)
	if !b.ContainsRect(sub) {
		panic(fmt.Sprintf("distmat: sub-rect %v outside tile %v bounds %v", sub, idx, b))
	}
	rows, cols := sub.Shape()
	if dst.Rows != rows || dst.Cols != cols || !dst.IsDense() {
		panic(fmt.Sprintf("distmat: GetSubTileIntoAsync needs dense %dx%d buffer, got %v", rows, cols, dst))
	}
	f.Tile = dst
	if rows == 0 || cols == 0 {
		f.future = rt.CompletedFuture()
		return
	}
	_, tileCols := b.Shape()
	local := sub.Localize(b.Rows.Begin, b.Cols.Begin)
	owner := m.OwnerRank(idx, replica, pe.Rank())
	off := m.tileOffset[idx.Row][idx.Col] + local.Rows.Begin*tileCols + local.Cols.Begin
	f.future = pe.GetStridedAsync(dst.Data, cols, m.seg, owner, off, tileCols, rows, cols)
}

// AccumulateTile atomically adds view into tile idx of the given replica
// (accumulate_tile). The view must match the tile's shape. Whether the
// block is one contiguous range is the backend's call (AccumulateAddStrided
// decides it), not this layer's.
func (m *Matrix) AccumulateTile(pe rt.PE, idx index.TileIdx, replica int, view *tile.Matrix) {
	b := m.grid.TileBounds(idx)
	rows, cols := b.Shape()
	if view.Rows != rows || view.Cols != cols {
		panic(fmt.Sprintf("distmat: accumulate shape %dx%d into %dx%d tile %v",
			view.Rows, view.Cols, rows, cols, idx))
	}
	owner := m.OwnerRank(idx, replica, pe.Rank())
	pe.AccumulateAddStrided(view.Data, view.Stride, m.seg, owner, m.tileOffset[idx.Row][idx.Col], cols, rows, cols)
}

// AccumulateSubTile atomically adds view into the sub-rectangle sub (in
// global coordinates) of tile idx. This is the misaligned-tile accumulate
// path: when C's tiles do not align with the op's m×n bounds only a slice
// of the destination tile is updated.
func (m *Matrix) AccumulateSubTile(pe rt.PE, idx index.TileIdx, replica int, sub index.Rect, view *tile.Matrix) {
	b := m.grid.TileBounds(idx)
	if !b.ContainsRect(sub) {
		panic(fmt.Sprintf("distmat: sub-rect %v outside tile %v bounds %v", sub, idx, b))
	}
	rows, cols := sub.Shape()
	if view.Rows != rows || view.Cols != cols {
		panic(fmt.Sprintf("distmat: accumulate view %dx%d into %dx%d sub-rect", view.Rows, view.Cols, rows, cols))
	}
	if rows == 0 || cols == 0 {
		return
	}
	_, tileCols := b.Shape()
	local := sub.Localize(b.Rows.Begin, b.Cols.Begin)
	owner := m.OwnerRank(idx, replica, pe.Rank())
	off := m.tileOffset[idx.Row][idx.Col] + local.Rows.Begin*tileCols + local.Cols.Begin
	pe.AccumulateAddStrided(view.Data, view.Stride, m.seg, owner, off, tileCols, rows, cols)
}

// GetSubTile copies the sub-rectangle sub (global coordinates) of tile idx
// into a fresh local matrix.
func (m *Matrix) GetSubTile(pe rt.PE, idx index.TileIdx, replica int, sub index.Rect) *tile.Matrix {
	b := m.grid.TileBounds(idx)
	if !b.ContainsRect(sub) {
		panic(fmt.Sprintf("distmat: sub-rect %v outside tile %v bounds %v", sub, idx, b))
	}
	rows, cols := sub.Shape()
	dst := tile.New(rows, cols)
	if rows == 0 || cols == 0 {
		return dst
	}
	_, tileCols := b.Shape()
	local := sub.Localize(b.Rows.Begin, b.Cols.Begin)
	owner := m.OwnerRank(idx, replica, pe.Rank())
	off := m.tileOffset[idx.Row][idx.Col] + local.Rows.Begin*tileCols + local.Cols.Begin
	pe.GetStrided(dst.Data, cols, m.seg, owner, off, tileCols, rows, cols)
	return dst
}

func (m *Matrix) resolveReplica(replica, callerRank int) int {
	if replica == LocalReplica {
		return m.ReplicaOf(callerRank)
	}
	if replica < 0 || replica >= m.replication {
		panic(fmt.Sprintf("distmat: replica %d out of %d replicas", replica, m.replication))
	}
	return replica
}

func (m *Matrix) checkTile(idx index.TileIdx) {
	if !m.grid.Valid(idx) {
		tr, tc := m.grid.GridShape()
		panic(fmt.Sprintf("distmat: tile %v outside %dx%d grid", idx, tr, tc))
	}
}

// FillRandom deterministically fills the matrix with uniform values in
// [-1, 1). Every PE fills the tiles its slot owns; tile content depends only
// on (seed, tile index) so all replicas hold identical data. Collective:
// all PEs must call it, and it ends with a barrier.
func (m *Matrix) FillRandom(pe rt.PE, seed int64) {
	for _, idx := range m.OwnedTiles(pe.Rank()) {
		t := m.Tile(pe, idx, LocalReplica)
		rng := rand.New(rand.NewSource(seed ^ int64(idx.Row)<<32 ^ int64(idx.Col)<<16))
		t.FillRandom(rng)
	}
	pe.Barrier()
}

// Zero clears the caller's owned tiles in its replica. Collective.
func (m *Matrix) Zero(pe rt.PE) {
	m.ZeroLocal(pe)
	pe.Barrier()
}

// ZeroLocal is Zero without the closing barrier, for callers that zero
// several matrices behind one barrier of their own. It walks the grid with
// one stack tile header, so it allocates nothing.
func (m *Matrix) ZeroLocal(pe rt.PE) {
	slot := m.SlotOf(pe.Rank())
	var t tile.Matrix
	for r, row := range m.ownerSlot {
		for c, owner := range row {
			if owner == slot {
				m.TileInto(pe, &t, index.TileIdx{Row: r, Col: c}, LocalReplica)
				t.Zero()
			}
		}
	}
}

// ScatterFrom distributes a full global matrix into the caller's owned
// tiles (all replicas fill from the same source, so replicas stay
// identical). Collective.
func (m *Matrix) ScatterFrom(pe rt.PE, src *tile.Matrix) {
	if src.Rows != m.rows || src.Cols != m.cols {
		panic(fmt.Sprintf("distmat: scatter source %dx%d into %dx%d matrix", src.Rows, src.Cols, m.rows, m.cols))
	}
	for _, idx := range m.OwnedTiles(pe.Rank()) {
		b := m.grid.TileBounds(idx)
		t := m.Tile(pe, idx, LocalReplica)
		t.CopyFrom(src.View(b.Rows.Begin, b.Cols.Begin, b.Rows.Len(), b.Cols.Len()))
	}
	pe.Barrier()
}

// Gather assembles the full matrix from the given replica using one-sided
// reads. Any PE may call it independently; it is not collective.
func (m *Matrix) Gather(pe rt.PE, replica int) *tile.Matrix {
	out := tile.New(m.rows, m.cols)
	tr, tc := m.grid.GridShape()
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			idx := index.TileIdx{Row: r, Col: c}
			t := m.GetTile(pe, idx, replica)
			b := m.grid.TileBounds(idx)
			out.View(b.Rows.Begin, b.Cols.Begin, b.Rows.Len(), b.Cols.Len()).CopyFrom(t)
		}
	}
	return out
}

func (m *Matrix) String() string {
	tr, tc := m.grid.GridShape()
	return fmt.Sprintf("DistMatrix{%dx%d, %s, c=%d, grid %dx%d}",
		m.rows, m.cols, m.part.Name(), m.replication, tr, tc)
}
