package distmat

import (
	"bytes"
	"math/rand"
	"testing"

	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

func TestNearSquareFactors(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4}, 12: {3, 4}, 16: {4, 4}, 7: {1, 7}}
	for p, want := range cases {
		pr, pc := NearSquareFactors(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("NearSquareFactors(%d) = (%d,%d), want %v", p, pr, pc, want)
		}
		if pr*pc != p {
			t.Errorf("factors of %d do not multiply back", p)
		}
	}
}

func TestRowBlockPartition(t *testing.T) {
	g := RowBlock{}.Grid(100, 60, 4)
	tr, tc := g.GridShape()
	if tr != 4 || tc != 1 {
		t.Fatalf("row block grid = %dx%d, want 4x1", tr, tc)
	}
	for r := 0; r < 4; r++ {
		if got := (RowBlock{}).OwnerSlot(g, index.TileIdx{Row: r}, 4); got != r {
			t.Errorf("row tile %d owner = %d", r, got)
		}
	}
}

func TestColBlockPartition(t *testing.T) {
	g := ColBlock{}.Grid(60, 100, 4)
	tr, tc := g.GridShape()
	if tr != 1 || tc != 4 {
		t.Fatalf("col block grid = %dx%d, want 1x4", tr, tc)
	}
}

func TestBlock2DPartition(t *testing.T) {
	b := Block2D{}
	g := b.Grid(120, 120, 12)
	tr, tc := g.GridShape()
	if tr != 3 || tc != 4 {
		t.Fatalf("block2d grid = %dx%d, want 3x4", tr, tc)
	}
	seen := map[int]bool{}
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			seen[b.OwnerSlot(g, index.TileIdx{Row: r, Col: c}, 12)] = true
		}
	}
	if len(seen) != 12 {
		t.Fatalf("block2d uses %d slots, want 12", len(seen))
	}
}

func TestBlock2DExplicitGridMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("3x3 grid for 12 slots should panic")
		}
	}()
	Block2D{ProcRows: 3, ProcCols: 3}.Grid(100, 100, 12)
}

func TestCustomBlockCyclic(t *testing.T) {
	// 2x2 process grid, small tiles: ownership should cycle.
	c := Custom{TileRows: 10, TileCols: 10, ProcRows: 2, ProcCols: 2}
	g := c.Grid(40, 40, 4)
	if got := c.OwnerSlot(g, index.TileIdx{Row: 0, Col: 0}, 4); got != 0 {
		t.Errorf("tile (0,0) owner = %d", got)
	}
	if got := c.OwnerSlot(g, index.TileIdx{Row: 2, Col: 3}, 4); got != 0*2+1 {
		t.Errorf("tile (2,3) owner = %d, want 1", got)
	}
	if got := c.OwnerSlot(g, index.TileIdx{Row: 3, Col: 2}, 4); got != 2 {
		t.Errorf("tile (3,2) owner = %d, want 2", got)
	}
}

func newTestMatrix(t *testing.T, p int, rows, cols int, part Partition, c int) (rt.World, *Matrix) {
	t.Helper()
	w := shmem.NewWorld(p)
	return w, New(w, rows, cols, part, c)
}

func TestNewReplicationMustDivide(t *testing.T) {
	w := shmem.NewWorld(4)
	defer func() {
		if recover() == nil {
			t.Fatal("replication 3 over 4 PEs should panic")
		}
	}()
	New(w, 10, 10, RowBlock{}, 3)
}

func TestOwnedTilesCoverGridOnce(t *testing.T) {
	parts := []Partition{RowBlock{}, ColBlock{}, Block2D{}, Custom{TileRows: 7, TileCols: 9, ProcRows: 2, ProcCols: 2}}
	for _, part := range parts {
		w := shmem.NewWorld(4)
		m := New(w, 53, 47, part, 1)
		counts := map[index.TileIdx]int{}
		for rank := 0; rank < 4; rank++ {
			for _, idx := range m.OwnedTiles(rank) {
				counts[idx]++
			}
		}
		if len(counts) != m.Grid().NumTiles() {
			t.Errorf("%s: %d distinct owned tiles, want %d", part.Name(), len(counts), m.Grid().NumTiles())
		}
		for idx, n := range counts {
			if n != 1 {
				t.Errorf("%s: tile %v owned %d times", part.Name(), idx, n)
			}
		}
	}
}

func TestReplicaSlotMapping(t *testing.T) {
	_, m := newTestMatrix(t, 12, 60, 60, RowBlock{}, 3)
	if m.Slots() != 4 {
		t.Fatalf("slots = %d, want 4", m.Slots())
	}
	if m.ReplicaOf(0) != 0 || m.ReplicaOf(4) != 1 || m.ReplicaOf(11) != 2 {
		t.Fatal("ReplicaOf wrong")
	}
	if m.SlotOf(5) != 1 || m.SlotOf(11) != 3 {
		t.Fatal("SlotOf wrong")
	}
	if m.RankFor(1, 2) != 9 {
		t.Fatalf("RankFor(1,2) = %d, want 9", m.RankFor(1, 2))
	}
}

func TestTileViewAndGetTile(t *testing.T) {
	w, m := newTestMatrix(t, 4, 40, 40, RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		owned := m.OwnedTiles(pe.Rank())
		if len(owned) != 1 {
			t.Errorf("rank %d owns %d tiles, want 1", pe.Rank(), len(owned))
			return
		}
		v := m.Tile(pe, owned[0], LocalReplica)
		v.Fill(float32(pe.Rank() + 1))
		pe.Barrier()
		// Every PE reads rank 2's tile through get_tile.
		got := m.GetTile(pe, index.TileIdx{Row: 2, Col: 0}, LocalReplica)
		if got.At(0, 0) != 3 {
			t.Errorf("rank %d read %v from tile (2,0)", pe.Rank(), got.At(0, 0))
		}
	})
}

func TestTilePanicsWhenRemote(t *testing.T) {
	w, m := newTestMatrix(t, 2, 20, 20, RowBlock{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Tile on remote tile should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			m.Tile(pe, index.TileIdx{Row: 1, Col: 0}, LocalReplica)
		}
	})
}

func TestGetTileAsyncLocalFastPath(t *testing.T) {
	w, m := newTestMatrix(t, 2, 20, 20, RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		local := m.OwnedTiles(pe.Rank())[0]
		f := m.GetTileAsync(pe, local, LocalReplica)
		if !f.Done() {
			t.Error("local tile future should be complete immediately")
		}
		v := f.Wait()
		v.Fill(9) // zero-copy view: writes hit symmetric memory
		direct := m.Tile(pe, local, LocalReplica)
		if direct.At(0, 0) != 9 {
			t.Error("local async tile should be a view, not a copy")
		}
	})
}

func TestGetTileAsyncRemote(t *testing.T) {
	w, m := newTestMatrix(t, 4, 40, 40, ColBlock{}, 1)
	w.Run(func(pe rt.PE) {
		m.Tile(pe, m.OwnedTiles(pe.Rank())[0], LocalReplica).Fill(float32(pe.Rank()))
		pe.Barrier()
		idx := index.TileIdx{Row: 0, Col: (pe.Rank() + 1) % 4}
		f := m.GetTileAsync(pe, idx, LocalReplica)
		got := f.Wait()
		want := float32((pe.Rank() + 1) % 4)
		if got.At(3, 3) != want {
			t.Errorf("rank %d async-got %v, want %v", pe.Rank(), got.At(3, 3), want)
		}
	})
}

func TestAccumulateTileConcurrent(t *testing.T) {
	w, m := newTestMatrix(t, 4, 8, 8, RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		update := tile.New(2, 8)
		update.Fill(1)
		// Everyone accumulates into tile (0,0), owned by rank 0.
		m.AccumulateTile(pe, index.TileIdx{}, LocalReplica, update)
		pe.Barrier()
		if pe.Rank() == 0 {
			v := m.Tile(pe, index.TileIdx{}, LocalReplica)
			if v.At(1, 5) != 4 {
				t.Errorf("accumulated value = %v, want 4", v.At(1, 5))
			}
		}
	})
}

func TestAccumulateTileShapeMismatchPanics(t *testing.T) {
	w, m := newTestMatrix(t, 2, 20, 20, RowBlock{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shape accumulate should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			m.AccumulateTile(pe, index.TileIdx{}, LocalReplica, tile.New(3, 3))
		}
	})
}

func TestSubTileRoundTrip(t *testing.T) {
	w, m := newTestMatrix(t, 2, 20, 20, RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 1 {
			// Accumulate a 3x4 block into global rect rows 2..5, cols 6..10 of
			// tile (0,0) (owned by rank 0).
			v := tile.New(3, 4)
			v.Fill(2)
			sub := index.NewRect(2, 5, 6, 10)
			m.AccumulateSubTile(pe, index.TileIdx{}, LocalReplica, sub, v)
		}
		pe.Barrier()
		got := m.GetSubTile(pe, index.TileIdx{}, LocalReplica, index.NewRect(2, 5, 6, 10))
		if got.At(0, 0) != 2 || got.At(2, 3) != 2 {
			t.Errorf("rank %d sub-tile = %v", pe.Rank(), got.Data)
		}
		full := m.GetTile(pe, index.TileIdx{}, LocalReplica)
		if full.At(0, 0) != 0 || full.At(9, 19) != 0 {
			t.Error("accumulate leaked outside sub-rect")
		}
	})
}

func TestFillRandomReplicasIdentical(t *testing.T) {
	w, m := newTestMatrix(t, 6, 30, 30, RowBlock{}, 2)
	w.Run(func(pe rt.PE) {
		m.FillRandom(pe, 42)
		if pe.Rank() == 0 {
			r0 := m.Gather(pe, 0)
			r1 := m.Gather(pe, 1)
			if !r0.Equal(r1) {
				t.Error("replicas differ after FillRandom")
			}
			if r0.Norm1() == 0 {
				t.Error("FillRandom left zeros")
			}
		}
	})
}

func TestScatterGatherRoundTrip(t *testing.T) {
	parts := []Partition{RowBlock{}, ColBlock{}, Block2D{}, Custom{TileRows: 7, TileCols: 11, ProcRows: 2, ProcCols: 3}}
	for _, part := range parts {
		w := shmem.NewWorld(6)
		m := New(w, 37, 41, part, 1)
		src := tile.New(37, 41)
		src.FillRandom(rand.New(rand.NewSource(3)))
		w.Run(func(pe rt.PE) {
			m.ScatterFrom(pe, src)
			if pe.Rank() == 3 {
				got := m.Gather(pe, 0)
				if !got.Equal(src) {
					t.Errorf("%s: scatter/gather round trip failed", part.Name())
				}
			}
		})
	}
}

func TestScatterGatherWithReplication(t *testing.T) {
	w := shmem.NewWorld(8)
	m := New(w, 24, 24, Block2D{}, 4) // 2 slots per replica
	src := tile.New(24, 24)
	src.FillRandom(rand.New(rand.NewSource(5)))
	w.Run(func(pe rt.PE) {
		m.ScatterFrom(pe, src)
		for rep := 0; rep < 4; rep++ {
			got := m.Gather(pe, rep)
			if !got.Equal(src) {
				t.Errorf("replica %d gather mismatch on rank %d", rep, pe.Rank())
				return
			}
		}
	})
}

func TestReduceReplicas(t *testing.T) {
	w, m := newTestMatrix(t, 6, 12, 12, RowBlock{}, 3)
	w.Run(func(pe rt.PE) {
		// Each replica writes its replica number + 1 into all its tiles.
		rep := m.ReplicaOf(pe.Rank())
		for _, idx := range m.OwnedTiles(pe.Rank()) {
			m.Tile(pe, idx, LocalReplica).Fill(float32(rep + 1))
		}
		m.ReduceReplicas(pe, 0)
		if pe.Rank() == 0 {
			got := m.Gather(pe, 0)
			if got.At(0, 0) != 6 { // 1 + 2 + 3
				t.Errorf("reduced value = %v, want 6", got.At(0, 0))
			}
		}
		// Non-origin replicas keep their partials.
		pe.Barrier()
		if pe.Rank() == 2 { // replica 1's slot 0
			got := m.Gather(pe, 1)
			if got.At(0, 0) != 2 {
				t.Errorf("replica 1 partial = %v, want 2", got.At(0, 0))
			}
		}
	})
}

func TestBroadcastReplica(t *testing.T) {
	w, m := newTestMatrix(t, 4, 16, 16, ColBlock{}, 2)
	w.Run(func(pe rt.PE) {
		rep := m.ReplicaOf(pe.Rank())
		for _, idx := range m.OwnedTiles(pe.Rank()) {
			m.Tile(pe, idx, LocalReplica).Fill(float32(100 * (rep + 1)))
		}
		m.BroadcastReplica(pe, 0)
		got := m.Gather(pe, 1)
		if got.At(0, 0) != 100 {
			t.Errorf("after broadcast, replica 1 holds %v, want 100", got.At(0, 0))
		}
	})
}

func TestAllReduceReplicas(t *testing.T) {
	w, m := newTestMatrix(t, 4, 8, 8, RowBlock{}, 2)
	w.Run(func(pe rt.PE) {
		for _, idx := range m.OwnedTiles(pe.Rank()) {
			m.Tile(pe, idx, LocalReplica).Fill(1)
		}
		m.ReduceReplicas(pe, 0)
		m.BroadcastReplica(pe, 0)
		for rep := 0; rep < 2; rep++ {
			got := m.Gather(pe, rep)
			if got.At(3, 3) != 2 {
				t.Errorf("replica %d after allreduce = %v, want 2", rep, got.At(3, 3))
			}
		}
	})
}

func TestOwnerRankAcrossReplicas(t *testing.T) {
	_, m := newTestMatrix(t, 8, 32, 32, RowBlock{}, 2)
	idx := index.TileIdx{Row: 2, Col: 0}
	// Slot of tile row 2 is 2; replica 1 starts at rank 4.
	if got := m.OwnerRank(idx, 1, 0); got != 6 {
		t.Fatalf("OwnerRank(replica 1) = %d, want 6", got)
	}
	// LocalReplica resolves by caller rank.
	if got := m.OwnerRank(idx, LocalReplica, 5); got != 6 {
		t.Fatalf("OwnerRank(local from rank 5) = %d, want 6", got)
	}
	if got := m.OwnerRank(idx, LocalReplica, 1); got != 2 {
		t.Fatalf("OwnerRank(local from rank 1) = %d, want 2", got)
	}
}

func TestInvalidReplicaPanics(t *testing.T) {
	w, m := newTestMatrix(t, 2, 10, 10, RowBlock{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid replica index should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			m.GetTile(pe, index.TileIdx{}, 3)
		}
	})
}

func TestRaggedEdgeTiles(t *testing.T) {
	// 50x50 over 4 row blocks: ceil(50/4)=13, so tiles are 13,13,13,11 rows.
	w, m := newTestMatrix(t, 4, 50, 50, RowBlock{}, 1)
	src := tile.New(50, 50)
	src.FillRandom(rand.New(rand.NewSource(9)))
	w.Run(func(pe rt.PE) {
		m.ScatterFrom(pe, src)
		if pe.Rank() == 0 {
			last := m.GetTile(pe, index.TileIdx{Row: 3, Col: 0}, LocalReplica)
			if last.Rows != 11 || last.Cols != 50 {
				t.Errorf("ragged tile shape = %dx%d, want 11x50", last.Rows, last.Cols)
			}
			if got := m.Gather(pe, 0); !got.Equal(src) {
				t.Error("ragged gather mismatch")
			}
		}
	})
}

func TestTransposeIntoAllPartitionings(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	parts := []Partition{RowBlock{}, ColBlock{}, Block2D{}, Custom{TileRows: 5, TileCols: 8, ProcRows: 2, ProcCols: 2}}
	for _, srcPart := range parts {
		for _, dstPart := range parts {
			w := shmem.NewWorld(4)
			src := New(w, 23, 31, srcPart, 1)
			dst := New(w, 31, 23, dstPart, 1)
			full := tile.New(23, 31)
			full.FillRandom(rng)
			w.Run(func(pe rt.PE) {
				src.ScatterFrom(pe, full)
				src.TransposeInto(pe, dst)
				if pe.Rank() == 0 {
					got := dst.Gather(pe, 0)
					if !got.Equal(full.Transpose()) {
						t.Errorf("%s -> %s: transpose mismatch", srcPart.Name(), dstPart.Name())
					}
				}
			})
		}
	}
}

func TestTransposeIntoWithReplication(t *testing.T) {
	w := shmem.NewWorld(8)
	src := New(w, 16, 24, RowBlock{}, 2)
	dst := New(w, 24, 16, ColBlock{}, 4)
	full := tile.New(16, 24)
	full.FillRandom(rand.New(rand.NewSource(14)))
	w.Run(func(pe rt.PE) {
		src.ScatterFrom(pe, full)
		src.TransposeInto(pe, dst)
	})
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			for rep := 0; rep < 4; rep++ {
				if got := dst.Gather(pe, rep); !got.Equal(full.Transpose()) {
					t.Errorf("replica %d transpose mismatch", rep)
				}
			}
		}
	})
}

func TestTransposeIntoShapeMismatchPanics(t *testing.T) {
	w := shmem.NewWorld(2)
	src := New(w, 10, 12, RowBlock{}, 1)
	dst := New(w, 10, 12, RowBlock{}, 1) // not transposed shape
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		src.TransposeInto(pe, dst)
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	w := shmem.NewWorld(4)
	src := New(w, 19, 27, Block2D{}, 1)
	dst := New(w, 19, 27, ColBlock{}, 2) // restore into a different distribution
	full := tile.New(19, 27)
	full.FillRandom(rand.New(rand.NewSource(15)))
	var buf bytes.Buffer
	w.Run(func(pe rt.PE) {
		src.ScatterFrom(pe, full)
		if pe.Rank() == 0 {
			if _, err := src.WriteTo(pe, &buf); err != nil {
				t.Errorf("WriteTo: %v", err)
			}
		}
	})
	data := buf.Bytes()
	w.Run(func(pe rt.PE) {
		if err := dst.ReadInto(pe, bytes.NewReader(data)); err != nil {
			t.Errorf("ReadInto: %v", err)
		}
		if pe.Rank() == 2 {
			if got := dst.Gather(pe, 1); !got.Equal(full) {
				t.Error("round trip corrupted data")
			}
		}
	})
}

func TestReadDenseRejectsGarbage(t *testing.T) {
	if _, err := ReadDense(bytes.NewReader([]byte("not a matrix file....."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadDense(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadIntoShapeMismatch(t *testing.T) {
	w := shmem.NewWorld(2)
	src := New(w, 4, 4, RowBlock{}, 1)
	dst := New(w, 5, 5, RowBlock{}, 1)
	var buf bytes.Buffer
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			src.WriteTo(pe, &buf)
		}
	})
	data := buf.Bytes()
	sawErr := make([]bool, 2)
	w.Run(func(pe rt.PE) {
		if err := dst.ReadInto(pe, bytes.NewReader(data)); err != nil {
			sawErr[pe.Rank()] = true
			pe.Barrier() // match ScatterFrom's barrier on the success path
		}
	})
	if !sawErr[0] || !sawErr[1] {
		t.Fatal("shape mismatch not reported")
	}
}

func TestRowCyclicOwnership(t *testing.T) {
	rc := RowCyclic{BlockRows: 2}
	g := rc.Grid(20, 6, 3)
	tr, _ := g.GridShape()
	if tr != 10 {
		t.Fatalf("grid rows = %d, want 10", tr)
	}
	// Blocks cycle 0,1,2,0,1,2,...
	for r := 0; r < tr; r++ {
		if got := rc.OwnerSlot(g, index.TileIdx{Row: r}, 3); got != r%3 {
			t.Fatalf("block %d owner = %d, want %d", r, got, r%3)
		}
	}
}

func TestCyclicDefaultsToBlockOne(t *testing.T) {
	g := RowCyclic{}.Grid(7, 4, 2)
	tr, _ := g.GridShape()
	if tr != 7 {
		t.Fatalf("pure cyclic should have one row per block, got %d blocks", tr)
	}
	g2 := ColCyclic{}.Grid(4, 7, 2)
	_, tc := g2.GridShape()
	if tc != 7 {
		t.Fatalf("pure col-cyclic should have one col per block, got %d", tc)
	}
}

func TestCyclicScatterGather(t *testing.T) {
	w := shmem.NewWorld(3)
	m := New(w, 17, 13, RowCyclic{BlockRows: 2}, 1)
	src := tile.New(17, 13)
	src.FillRandom(rand.New(rand.NewSource(20)))
	w.Run(func(pe rt.PE) {
		m.ScatterFrom(pe, src)
		if pe.Rank() == 1 {
			if got := m.Gather(pe, 0); !got.Equal(src) {
				t.Error("cyclic scatter/gather round trip failed")
			}
		}
	})
}

func TestGetTileInto(t *testing.T) {
	w, m := newTestMatrix(t, 4, 40, 40, RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		m.Tile(pe, m.OwnedTiles(pe.Rank())[0], LocalReplica).Fill(float32(pe.Rank()))
		pe.Barrier()
		dst := tile.New(10, 40)
		m.GetTileInto(pe, dst, index.TileIdx{Row: 3, Col: 0}, LocalReplica)
		if dst.At(0, 0) != 3 {
			t.Errorf("GetTileInto read %v", dst.At(0, 0))
		}
	})
}

func TestGetTileIntoWrongShapePanics(t *testing.T) {
	w, m := newTestMatrix(t, 2, 20, 20, RowBlock{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shape buffer should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			m.GetTileInto(pe, tile.New(3, 3), index.TileIdx{}, LocalReplica)
		}
	})
}

func TestSparseTileNNZAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	global := tile.RandomCSR(rng, 24, 24, 0.2)
	w := shmem.NewWorld(4)
	s := NewSparse(w, global, Block2D{}, 1)
	tr, tc := s.GridShape()
	total := 0
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			total += s.TileNNZ(index.TileIdx{Row: r, Col: c})
		}
	}
	if total != global.NNZ() {
		t.Fatalf("tile nnz sums to %d, global has %d", total, global.NNZ())
	}
	if s.Rows() != 24 || s.Cols() != 24 {
		t.Fatal("sparse shape wrong")
	}
}

func TestSparseReplicasIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	global := tile.RandomCSR(rng, 16, 16, 0.3)
	w := shmem.NewWorld(4)
	s := NewSparse(w, global, RowBlock{}, 2)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			d0 := s.Gather(pe, 0)
			d1 := s.Gather(pe, 1)
			if !d0.Equal(d1) {
				t.Error("sparse replicas differ")
			}
			if !d0.Equal(global.ToDense()) {
				t.Error("sparse replica 0 does not match the source")
			}
		}
	})
}

// The Into variants (TileInto, GetTileIntoAsync, GetSubTileIntoAsync) are
// the allocation-free fetch primitives of the execution hot path: they must
// land the same data as their allocating counterparts, in caller-owned
// buffers, and reject wrongly shaped buffers.
func TestIntoVariantsMatchAllocatingOnes(t *testing.T) {
	w := shmem.NewWorld(4)
	m := New(w, 24, 24, Block2D{}, 1)
	w.Run(func(pe rt.PE) {
		m.FillRandom(pe, 7)
		idx := index.TileIdx{Row: 1, Col: 1}
		owner := m.OwnerRank(idx, LocalReplica, pe.Rank())
		b := m.TileBounds(idx)
		rows, cols := b.Shape()

		if owner == pe.Rank() {
			var v tile.Matrix
			m.TileInto(pe, &v, idx, LocalReplica)
			if !v.Equal(m.Tile(pe, idx, LocalReplica)) {
				t.Error("TileInto differs from Tile")
			}
			if &v.Data[0] != &m.Tile(pe, idx, LocalReplica).Data[0] {
				t.Error("TileInto must be zero-copy")
			}
		} else {
			var f TileFuture
			dst := tile.New(rows, cols)
			m.GetTileIntoAsync(pe, &f, dst, idx, LocalReplica)
			got := f.Wait()
			if got != dst {
				t.Error("future must resolve to the caller's buffer")
			}
			if !got.Equal(m.GetTile(pe, idx, LocalReplica)) {
				t.Error("GetTileIntoAsync data mismatch")
			}

			sub := index.NewRect(b.Rows.Begin+1, b.Rows.End, b.Cols.Begin, b.Cols.End-1)
			sr, sc := sub.Shape()
			var sf TileFuture
			sdst := tile.New(sr, sc)
			m.GetSubTileIntoAsync(pe, &sf, sdst, idx, LocalReplica, sub)
			if !sf.Wait().Equal(m.GetSubTile(pe, idx, LocalReplica, sub)) {
				t.Error("GetSubTileIntoAsync data mismatch")
			}
		}
	})
}

func TestGetTileIntoAsyncRejectsWrongShape(t *testing.T) {
	w := shmem.NewWorld(2)
	m := New(w, 16, 16, RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("wrong-shape buffer should panic")
			}
		}()
		var f TileFuture
		m.GetTileIntoAsync(pe, &f, tile.New(3, 3), index.TileIdx{Row: 1, Col: 0}, LocalReplica)
	})
}

// Zero runs once per multiply and once per served request: it must clear
// exactly the caller's owned tiles and allocate nothing doing so.
func TestZeroAllocFree(t *testing.T) {
	const p = 4
	w := shmem.NewWorld(p)
	m := New(w, 50, 70, Custom{TileRows: 8, TileCols: 16, ProcRows: 2, ProcCols: 2}, 1)
	w.Run(func(pe rt.PE) {
		m.FillRandom(pe, 3)
		m.ZeroLocal(pe)
		for _, idx := range m.OwnedTiles(pe.Rank()) {
			if got := m.Tile(pe, idx, LocalReplica); got.MaxAbsDiff(tile.New(got.Rows, got.Cols)) != 0 {
				t.Errorf("rank %d tile %v not cleared", pe.Rank(), idx)
			}
		}
		pe.Barrier()
		if pe.Rank() != 0 || raceEnabled {
			return // alloc counts are only meaningful without -race
		}
		if allocs := testing.AllocsPerRun(20, func() { m.ZeroLocal(pe) }); allocs > 0 {
			t.Errorf("ZeroLocal allocates %v objects per call, want 0", allocs)
		}
	})
}
