package universal

import (
	"slicing/internal/distmat"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/tile"
)

// MultiplySparse computes C = A·B where A is a distributed sparse (CSR)
// matrix and B, C are dense — the sparse-times-dense workload (SpMM) of
// the paper's related work ([5], [16]). The slicing pass is identical to
// the dense case: ops are generated from A's tile grid metadata, so any
// partitioning/replication combination works. Execution fetches sparse A
// tiles (nnz-sized one-sided reads), slices them with CSR windowing, and
// accumulates dense partial results into C. Collective; zeroes C first.
func MultiplySparse(pe rt.PE, c *distmat.Matrix, a *distmat.Sparse, b *distmat.Matrix, cfg Config) Stationary {
	cfg = cfg.withDefaults()
	prob := NewProblem(c, a.Meta(), b)
	c.Zero(pe)
	// Stationary A would keep the sparse matrix in place; the auto rule
	// compares dense element counts, which is still a reasonable proxy.
	plan := BuildPlan(pe.Rank(), prob, cfg.Stationary, cfg.CacheTiles)

	aCache := map[index.TileIdx]*tile.CSR{}
	fetched := map[cacheKey]*distmat.TileFuture{}
	for _, s := range plan.Steps {
		// Sparse A tile: local decode or one-sided fetch, memoized (sparse
		// tiles are immutable during the multiply).
		aTile, ok := aCache[s.Op.AIdx]
		if !ok {
			aTile = a.GetTile(pe, s.Op.AIdx, distmat.LocalReplica)
			aCache[s.Op.AIdx] = aTile
		}
		// Dense B tile through the usual async path.
		var bTile *tile.Matrix
		if s.BLocal {
			bTile = prob.B.Tile(pe, s.Op.BIdx, distmat.LocalReplica)
		} else {
			key := cacheKey{'B', s.Op.BIdx}
			f, ok := fetched[key]
			if !ok {
				f = prob.B.GetTileAsync(pe, s.Op.BIdx, distmat.LocalReplica)
				fetched[key] = f
			}
			bTile = f.Wait()
		}

		ab := prob.A.TileBounds(s.Op.AIdx)
		bb := prob.B.TileBounds(s.Op.BIdx)
		aSlice := aTile.Window(
			s.Op.M.Begin-ab.Rows.Begin, s.Op.M.End-ab.Rows.Begin,
			s.Op.K.Begin-ab.Cols.Begin, s.Op.K.End-ab.Cols.Begin)
		bSlice := bTile.View(s.Op.K.Begin-bb.Rows.Begin, s.Op.N.Begin-bb.Cols.Begin, s.Op.K.Len(), s.Op.N.Len())

		rows, cols := s.Op.M.Len(), s.Op.N.Len()
		buf := cfg.Pool.Get(rows * cols)
		partial := tile.FromSlice(rows, cols, buf)
		tile.SpMM(partial, aSlice, bSlice)
		// Timed backends price the SpMM as its dense-equivalent GEMM, an
		// upper bound until the device model grows a sparse roofline.
		rt.ChargeGemm(pe, rows, cols, s.Op.K.Len())
		c.AccumulateSubTile(pe, s.Op.CIdx, distmat.LocalReplica, subRect(s.Op), partial)
		cfg.Pool.Put(buf)
	}
	Finish(pe, []Problem{prob}, cfg)
	return plan.Stationary
}
