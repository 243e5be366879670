package universal

import (
	"fmt"
	"math/rand"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

// testParts is a representative set of partitionings, including a
// deliberately misaligned ScaLAPACK-style descriptor (prime tile shapes).
func testParts(slots int) map[string]distmat.Partition {
	parts := map[string]distmat.Partition{
		"row":   distmat.RowBlock{},
		"col":   distmat.ColBlock{},
		"block": distmat.Block2D{},
	}
	pr, pc := distmat.NearSquareFactors(slots)
	parts["misaligned"] = distmat.Custom{TileRows: 7, TileCols: 11, ProcRows: pr, ProcCols: pc}
	return parts
}

func referenceProduct(m, n, k int, seedA, seedB int64, a, b *distmat.Matrix, w rt.World) *tile.Matrix {
	// Gather A and B (replica 0) on a fresh single-PE pass and multiply
	// serially. Uses a dedicated world run to own a PE handle.
	var ref *tile.Matrix
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		fullA := a.Gather(pe, 0)
		fullB := b.Gather(pe, 0)
		ref = tile.New(m, n)
		tile.GemmNaive(ref, fullA, fullB)
	})
	return ref
}

// runMultiply builds the three distributed matrices, fills them, runs the
// universal algorithm, and compares against the serial reference.
func runMultiply(t *testing.T, p, m, n, k int, partA, partB, partC distmat.Partition,
	cA, cB, cC int, stat Stationary) {
	t.Helper()
	w := shmem.NewWorld(p)
	a := distmat.New(w, m, k, partA, cA)
	b := distmat.New(w, k, n, partB, cB)
	c := distmat.New(w, m, n, partC, cC)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 101)
		b.FillRandom(pe, 202)
	})
	ref := referenceProduct(m, n, k, 101, 202, a, b, w)

	cfg := DefaultConfig()
	cfg.Stationary = stat
	cfg.SyncReplicas = true
	w.Run(func(pe rt.PE) {
		Multiply(pe, c, a, b, cfg)
	})

	var got *tile.Matrix
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			got = c.Gather(pe, 0)
		}
	})
	if !got.AllClose(ref, 1e-3) {
		t.Errorf("p=%d %dx%dx%d A=%s(c%d) B=%s(c%d) C=%s(c%d) %v: maxdiff %g",
			p, m, n, k, partA.Name(), cA, partB.Name(), cB, partC.Name(), cC, stat,
			got.MaxAbsDiff(ref))
	}
}

func TestMultiplyAllPartitioningPairs(t *testing.T) {
	const p, m, n, k = 4, 23, 29, 31 // prime dims exercise ragged tiles
	parts := testParts(p)
	for nameA, partA := range parts {
		for nameB, partB := range parts {
			for nameC, partC := range parts {
				name := fmt.Sprintf("A=%s/B=%s/C=%s", nameA, nameB, nameC)
				t.Run(name, func(t *testing.T) {
					runMultiply(t, p, m, n, k, partA, partB, partC, 1, 1, 1, StationaryAuto)
				})
			}
		}
	}
}

func TestMultiplyAllStationaryStrategies(t *testing.T) {
	const p, m, n, k = 4, 20, 24, 28
	parts := testParts(p)
	for _, stat := range []Stationary{StationaryA, StationaryB, StationaryC} {
		for nameA, partA := range parts {
			name := fmt.Sprintf("%v/A=%s", stat, nameA)
			t.Run(name, func(t *testing.T) {
				runMultiply(t, p, m, n, k, partA, distmat.ColBlock{}, distmat.RowBlock{}, 1, 1, 1, stat)
			})
		}
	}
}

func TestMultiplyWithReplication(t *testing.T) {
	// 12 PEs allow replication factors 1, 2, 3, 4, 6, 12.
	const p, m, n, k = 12, 26, 22, 30
	cases := []struct {
		cA, cB, cC int
		stat       Stationary
	}{
		{2, 1, 1, StationaryC},
		{1, 2, 1, StationaryC},
		{1, 1, 2, StationaryC}, // stationary C replicated: 1/c k-split
		{1, 1, 3, StationaryC},
		{2, 2, 1, StationaryB},
		{1, 3, 1, StationaryB}, // stationary B replicated: 1/c m-split
		{3, 1, 1, StationaryA}, // stationary A replicated: 1/c n-split
		{2, 2, 2, StationaryAuto},
		{12, 1, 1, StationaryC},   // fully replicated A
		{1, 1, 12, StationaryC},   // fully replicated C
		{4, 6, 2, StationaryAuto}, // mixed, unusual combination
	}
	for _, tc := range cases {
		name := fmt.Sprintf("cA%d_cB%d_cC%d_%v", tc.cA, tc.cB, tc.cC, tc.stat)
		t.Run(name, func(t *testing.T) {
			runMultiply(t, p, m, n, k, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{},
				tc.cA, tc.cB, tc.cC, tc.stat)
		})
	}
}

func TestMultiplyMisalignedWithReplication(t *testing.T) {
	const p, m, n, k = 4, 23, 29, 31
	mis := distmat.Custom{TileRows: 5, TileCols: 13, ProcRows: 2, ProcCols: 1}
	for _, stat := range []Stationary{StationaryA, StationaryB, StationaryC} {
		t.Run(stat.String(), func(t *testing.T) {
			runMultiply(t, p, m, n, k, mis, distmat.RowBlock{}, distmat.ColBlock{}, 2, 1, 2, stat)
		})
	}
}

func TestMultiplyTinyAndDegenerate(t *testing.T) {
	cases := [][3]int{{1, 1, 1}, {1, 16, 16}, {16, 1, 16}, {16, 16, 1}, {2, 3, 5}}
	for _, d := range cases {
		t.Run(fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]), func(t *testing.T) {
			runMultiply(t, 4, d[0], d[1], d[2], distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1, StationaryAuto)
		})
	}
}

func TestMultiplyShapeMismatchPanics(t *testing.T) {
	w := shmem.NewWorld(2)
	a := distmat.New(w, 10, 12, distmat.RowBlock{}, 1)
	b := distmat.New(w, 13, 8, distmat.RowBlock{}, 1) // k mismatch
	c := distmat.New(w, 10, 8, distmat.RowBlock{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	NewProblem(c, a, b)
}

func TestResolveStationaryPicksLargest(t *testing.T) {
	w := shmem.NewWorld(2)
	newProb := func(m, n, k int) Problem {
		a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
		b := distmat.New(w, k, n, distmat.RowBlock{}, 1)
		c := distmat.New(w, m, n, distmat.RowBlock{}, 1)
		return NewProblem(c, a, b)
	}
	if got := newProb(100, 4, 100).ResolveStationary(StationaryAuto); got != StationaryA {
		t.Errorf("large A should resolve to StationaryA, got %v", got)
	}
	if got := newProb(4, 4, 100).ResolveStationary(StationaryAuto); got != StationaryC {
		t.Errorf("tie between A and B should fall to StationaryC, got %v", got)
	}
	if got := newProb(4, 100, 100).ResolveStationary(StationaryAuto); got != StationaryB {
		t.Errorf("large B should resolve to StationaryB, got %v", got)
	}
	if got := newProb(100, 100, 4).ResolveStationary(StationaryAuto); got != StationaryC {
		t.Errorf("large C should resolve to StationaryC, got %v", got)
	}
	if got := newProb(10, 10, 10).ResolveStationary(StationaryB); got != StationaryB {
		t.Errorf("explicit strategy must pass through, got %v", got)
	}
}

// TestOpCoverageExactlyOnce is the core slicing invariant: across all
// ranks, the generated ops' M×K×N boxes tile the full computation space
// [0,m)×[0,k)×[0,n) exactly once — no missing and no duplicated elementary
// products — for every partitioning, replication, and stationary choice.
func TestOpCoverageExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	partsFor := func(slots int) []distmat.Partition {
		pr, pc := distmat.NearSquareFactors(slots)
		return []distmat.Partition{
			distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{},
			distmat.Custom{TileRows: 1 + rng.Intn(9), TileCols: 1 + rng.Intn(9), ProcRows: pr, ProcCols: pc},
		}
	}
	stats := []Stationary{StationaryA, StationaryB, StationaryC}
	for trial := 0; trial < 60; trial++ {
		p := []int{4, 6, 12}[rng.Intn(3)]
		divisors := []int{1, 2}
		if p%3 == 0 {
			divisors = append(divisors, 3)
		}
		cA := divisors[rng.Intn(len(divisors))]
		cB := divisors[rng.Intn(len(divisors))]
		cC := divisors[rng.Intn(len(divisors))]
		m, n, k := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)
		w := shmem.NewWorld(p)
		pa := partsFor(p / cA)[rng.Intn(4)]
		pb := partsFor(p / cB)[rng.Intn(4)]
		pc2 := partsFor(p / cC)[rng.Intn(4)]
		a := distmat.New(w, m, k, pa, cA)
		b := distmat.New(w, k, n, pb, cB)
		c := distmat.New(w, m, n, pc2, cC)
		prob := NewProblem(c, a, b)
		stat := stats[rng.Intn(3)]

		counts := make([]int, m*n*k)
		for rank := 0; rank < p; rank++ {
			for _, op := range GenerateOps(rank, prob, stat) {
				for i := op.M.Begin; i < op.M.End; i++ {
					for l := op.K.Begin; l < op.K.End; l++ {
						for j := op.N.Begin; j < op.N.End; j++ {
							counts[(i*k+l)*n+j]++
						}
					}
				}
			}
		}
		for pos, cnt := range counts {
			if cnt != 1 {
				i := pos / (k * n)
				l := pos / n % k
				j := pos % n
				t.Fatalf("trial %d (p=%d %dx%dx%d A=%s c%d B=%s c%d C=%s c%d %v): element (%d,%d,%d) covered %d times",
					trial, p, m, n, k, pa.Name(), cA, pb.Name(), cB, pc2.Name(), cC, stat, i, l, j, cnt)
			}
		}
	}
}

// Ops must stay within their tiles' bounds so slicing into views is safe.
func TestOpsWithinTileBounds(t *testing.T) {
	w := shmem.NewWorld(6)
	a := distmat.New(w, 25, 17, distmat.Custom{TileRows: 4, TileCols: 6, ProcRows: 2, ProcCols: 3}, 1)
	b := distmat.New(w, 17, 21, distmat.RowBlock{}, 1)
	c := distmat.New(w, 25, 21, distmat.ColBlock{}, 2)
	prob := NewProblem(c, a, b)
	for _, stat := range []Stationary{StationaryA, StationaryB, StationaryC} {
		for rank := 0; rank < 6; rank++ {
			for _, op := range GenerateOps(rank, prob, stat) {
				ab := a.TileBounds(op.AIdx)
				bb := b.TileBounds(op.BIdx)
				cb := c.TileBounds(op.CIdx)
				if !ab.Rows.ContainsInterval(op.M) || !ab.Cols.ContainsInterval(op.K) {
					t.Fatalf("%v rank %d: op %v exceeds A tile %v", stat, rank, op, ab)
				}
				if !bb.Rows.ContainsInterval(op.K) || !bb.Cols.ContainsInterval(op.N) {
					t.Fatalf("%v rank %d: op %v exceeds B tile %v", stat, rank, op, bb)
				}
				if !cb.Rows.ContainsInterval(op.M) || !cb.Cols.ContainsInterval(op.N) {
					t.Fatalf("%v rank %d: op %v exceeds C tile %v", stat, rank, op, cb)
				}
			}
		}
	}
}

// The iteration offset must only reorder ops, never change the set.
func TestRotatePreservesOps(t *testing.T) {
	ops := []LocalOp{}
	for i := 0; i < 5; i++ {
		ops = append(ops, LocalOp{M: index.NewInterval(i, i+1)})
	}
	prefix := []LocalOp{{K: index.NewInterval(7, 8)}}
	rot := appendRotated(prefix, ops, 2)
	if len(rot) != 6 || rot[0] != prefix[0] {
		t.Fatalf("appendRotated changed length or prefix: %v", rot)
	}
	if rot[1] != ops[2] || rot[5] != ops[1] {
		t.Fatalf("rotate order wrong: %v", rot)
	}
	if got := appendRotated(nil, nil, 3); len(got) != 0 {
		t.Fatal("rotate of empty should be empty")
	}
}

func TestPlanTrafficAccounting(t *testing.T) {
	w := shmem.NewWorld(4)
	a := distmat.New(w, 16, 16, distmat.RowBlock{}, 1)
	b := distmat.New(w, 16, 16, distmat.ColBlock{}, 1)
	c := distmat.New(w, 16, 16, distmat.Block2D{}, 1)
	prob := NewProblem(c, a, b)
	plan := BuildPlan(0, prob, StationaryC, 0)
	if plan.Stationary != StationaryC {
		t.Fatalf("plan stationary = %v", plan.Stationary)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("plan has no steps")
	}
	// Flops across all ranks must equal 2*m*n*k.
	var total float64
	for rank := 0; rank < 4; rank++ {
		total += BuildPlan(rank, prob, StationaryC, 0).TotalFlops()
	}
	if want := 2.0 * 16 * 16 * 16; total != want {
		t.Fatalf("total flops = %g, want %g", total, want)
	}
	if plan.RemoteFetchBytes() < 0 || plan.RemoteAccumBytes() < 0 {
		t.Fatal("negative traffic")
	}
}

// Cache hits: with column-block A times row-block B stationary C on one
// PE's tile, consecutive ops reuse the same A tile; the plan must not
// re-fetch it.
func TestPlanCachesRepeatedTiles(t *testing.T) {
	w := shmem.NewWorld(4)
	a := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	b := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	c := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	prob := NewProblem(c, a, b)
	plan := BuildPlan(0, prob, StationaryC, 8)
	fetches := map[cacheKey]int{}
	for _, s := range plan.Steps {
		if s.FetchB {
			fetches[cacheKey{'B', s.Op.BIdx}]++
		}
	}
	for key, n := range fetches {
		if n > 1 {
			t.Errorf("tile %v fetched %d times despite cache", key.idx, n)
		}
	}
}

func TestTileLRU(t *testing.T) {
	l := newTileLRU(2)
	k1 := cacheKey{'A', index.TileIdx{Row: 0, Col: 0}}
	k2 := cacheKey{'A', index.TileIdx{Row: 0, Col: 1}}
	k3 := cacheKey{'A', index.TileIdx{Row: 0, Col: 2}}
	if src, _, _ := l.touch(k1, 0); src != 0 {
		t.Fatal("first touch should miss")
	}
	if src, _, _ := l.touch(k1, 1); src != 0 {
		t.Fatal("second touch should hit step 0's fetch")
	}
	l.touch(k2, 2)
	_, evicted, did := l.touch(k3, 3) // k1 was touched twice, then k2; LRU is k1
	if !did || evicted != (fetchRef{step: 0, mat: 'A'}) {
		t.Fatalf("expected k1's fetch (step 0) evicted, got %v (evicted=%v)", evicted, did)
	}
	if src, _, _ := l.touch(k2, 4); src != 2 {
		t.Fatal("k2 should still be resident from step 2")
	}
}

// Sub-tile fetch mode must produce identical results for every stationary
// strategy and misaligned tilings.
func TestMultiplySubTileFetchCorrect(t *testing.T) {
	const p, m, n, k = 4, 23, 29, 31
	mis := distmat.Custom{TileRows: 5, TileCols: 13, ProcRows: 2, ProcCols: 2}
	for _, stat := range []Stationary{StationaryA, StationaryB, StationaryC} {
		t.Run(stat.String(), func(t *testing.T) {
			w := shmem.NewWorld(p)
			a := distmat.New(w, m, k, mis, 1)
			b := distmat.New(w, k, n, distmat.RowBlock{}, 1)
			c := distmat.New(w, m, n, distmat.ColBlock{}, 2)
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 101)
				b.FillRandom(pe, 202)
			})
			ref := referenceProduct(m, n, k, 101, 202, a, b, w)
			cfg := DefaultConfig()
			cfg.Stationary = stat
			cfg.SubTileFetch = true
			cfg.SyncReplicas = true
			w.Run(func(pe rt.PE) {
				Multiply(pe, c, a, b, cfg)
			})
			var got *tile.Matrix
			w.Run(func(pe rt.PE) {
				if pe.Rank() == 0 {
					got = c.Gather(pe, 0)
				}
			})
			if !got.AllClose(ref, 1e-3) {
				t.Errorf("sub-tile fetch mismatch: %g", got.MaxAbsDiff(ref))
			}
		})
	}
}

// With a replicated stationary C (k-range split), sub-tile fetches move
// strictly fewer bytes than whole-tile fetches of boundary tiles.
func TestSubTilePlanMovesFewerBytes(t *testing.T) {
	w := shmem.NewWorld(4)
	// A's row-block tiles span the full k dimension, but C is replicated
	// (c=2) so each replica's k-share needs only half of every A tile:
	// whole-tile fetches over-fetch 2x where sub-tile fetches do not.
	a := distmat.New(w, 64, 60, distmat.RowBlock{}, 1)
	b := distmat.New(w, 60, 64, distmat.RowBlock{}, 1)
	c := distmat.New(w, 64, 64, distmat.Block2D{}, 2)
	prob := NewProblem(c, a, b)
	fullBytes, subBytes := 0, 0
	for rank := 0; rank < 4; rank++ {
		fullBytes += compileRank(rank, prob, PlanKey{Stationary: StationaryC}, nil, nil).RemoteFetchBytes()
		subBytes += compileRank(rank, prob, PlanKey{Stationary: StationaryC, SubTile: true}, nil, nil).RemoteFetchBytes()
	}
	if subBytes >= fullBytes {
		t.Fatalf("sub-tile fetches (%d B) should undercut full-tile fetches (%d B) on misaligned k-split tiles",
			subBytes, fullBytes)
	}
}

// And conversely: when many ops share one tile, full-tile fetching with
// the cache can move fewer bytes than per-op sub-tile fetching.
func TestFullTilePlanWinsOnReuse(t *testing.T) {
	w := shmem.NewWorld(4)
	// Column-block A against a finely tiled B: each fetched B tile is
	// reused across the ops of the same stationary tile.
	a := distmat.New(w, 48, 48, distmat.RowBlock{}, 1)
	b := distmat.New(w, 48, 48, distmat.Custom{TileRows: 48, TileCols: 12, ProcRows: 1, ProcCols: 4}, 1)
	c := distmat.New(w, 48, 48, distmat.Custom{TileRows: 6, TileCols: 12, ProcRows: 4, ProcCols: 1}, 1)
	prob := NewProblem(c, a, b)
	fullBytes, subBytes := 0, 0
	for rank := 0; rank < 4; rank++ {
		key := PlanKey{Stationary: StationaryC, CacheTiles: DefaultCacheTiles}
		fullBytes += compileRank(rank, prob, key, nil, nil).RemoteFetchBytes()
		key.SubTile = true
		subBytes += compileRank(rank, prob, key, nil, nil).RemoteFetchBytes()
	}
	if fullBytes > subBytes {
		t.Fatalf("full-tile+cache (%d B) should beat sub-tile (%d B) when ops share tiles",
			fullBytes, subBytes)
	}
}

// The universal algorithm must also handle block-cyclic 1-D distributions
// (many small tiles cycling over slots).
func TestMultiplyCyclicDistributions(t *testing.T) {
	runMultiply(t, 4, 27, 25, 29, distmat.RowCyclic{BlockRows: 3}, distmat.ColCyclic{BlockCols: 2},
		distmat.Block2D{}, 1, 1, 1, StationaryAuto)
	runMultiply(t, 4, 27, 25, 29, distmat.RowCyclic{}, distmat.RowBlock{},
		distmat.ColCyclic{BlockCols: 4}, 1, 1, 1, StationaryB)
}

// Execution must be correct for every configuration-knob setting, not just
// the defaults: degenerate prefetch, serialized chains, a tiny tile cache,
// and combinations thereof.
func TestMultiplyConfigKnobs(t *testing.T) {
	const p, m, n, k = 4, 25, 21, 33
	knobs := []Config{
		{PrefetchDepth: 1, MaxInflight: 1, CacheTiles: 1},
		{PrefetchDepth: 8, MaxInflight: 2, CacheTiles: 2},
		{PrefetchDepth: 1, MaxInflight: 16, CacheTiles: 64},
		{PrefetchDepth: 3, MaxInflight: 4, CacheTiles: 8, SubTileFetch: true},
		{PrefetchDepth: 2, MaxInflight: 1, CacheTiles: 8},
		{PrefetchDepth: 2, MaxInflight: 4, CacheTiles: 8, SubTileFetch: true},
	}
	w := shmem.NewWorld(p)
	a := distmat.New(w, m, k, distmat.Block2D{}, 1)
	b := distmat.New(w, k, n, distmat.RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 301)
		b.FillRandom(pe, 302)
	})
	ref := referenceProduct(m, n, k, 301, 302, a, b, w)
	for i, cfg := range knobs {
		c := distmat.New(w, m, n, distmat.ColBlock{}, 1)
		cfg.SyncReplicas = true
		w.Run(func(pe rt.PE) {
			Multiply(pe, c, a, b, cfg)
		})
		var got *tile.Matrix
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				got = c.Gather(pe, 0)
			}
		})
		if !got.AllClose(ref, 1e-3) {
			t.Errorf("knob set %d (%+v): mismatch %g", i, knobs[i], got.MaxAbsDiff(ref))
		}
	}
}

// Fuzz-style end-to-end test: random partitionings (including cyclic and
// misaligned custom), random replication, random stationary strategy, and
// random fetch mode, always verified against the serial reference.
func TestMultiplyRandomizedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	partFor := func(slots int) distmat.Partition {
		pr, pc := distmat.NearSquareFactors(slots)
		switch rng.Intn(6) {
		case 0:
			return distmat.RowBlock{}
		case 1:
			return distmat.ColBlock{}
		case 2:
			return distmat.Block2D{}
		case 3:
			return distmat.RowCyclic{BlockRows: 1 + rng.Intn(4)}
		case 4:
			return distmat.ColCyclic{BlockCols: 1 + rng.Intn(4)}
		default:
			return distmat.Custom{TileRows: 1 + rng.Intn(10), TileCols: 1 + rng.Intn(10), ProcRows: pr, ProcCols: pc}
		}
	}
	for trial := 0; trial < 20; trial++ {
		p := []int{2, 4, 6}[rng.Intn(3)]
		divs := []int{1}
		for d := 2; d <= p; d++ {
			if p%d == 0 {
				divs = append(divs, d)
			}
		}
		cA := divs[rng.Intn(len(divs))]
		cB := divs[rng.Intn(len(divs))]
		cC := divs[rng.Intn(len(divs))]
		m, n, k := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		w := shmem.NewWorld(p)
		a := distmat.New(w, m, k, partFor(p/cA), cA)
		b := distmat.New(w, k, n, partFor(p/cB), cB)
		c := distmat.New(w, m, n, partFor(p/cC), cC)
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, int64(trial))
			b.FillRandom(pe, int64(trial)+1000)
		})
		ref := referenceProduct(m, n, k, 0, 0, a, b, w)
		cfg := DefaultConfig()
		cfg.Stationary = []Stationary{StationaryAuto, StationaryA, StationaryB, StationaryC}[rng.Intn(4)]
		cfg.SubTileFetch = rng.Intn(2) == 0
		cfg.SyncReplicas = true
		w.Run(func(pe rt.PE) {
			Multiply(pe, c, a, b, cfg)
		})
		var got *tile.Matrix
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				got = c.Gather(pe, 0)
			}
		})
		if !got.AllClose(ref, 1e-3) {
			t.Fatalf("trial %d (p=%d %dx%dx%d A=%s c%d B=%s c%d C=%s c%d %v subtile=%v): mismatch %g",
				trial, p, m, n, k, a.Partition().Name(), cA, b.Partition().Name(), cB,
				c.Partition().Name(), cC, cfg.Stationary, cfg.SubTileFetch, got.MaxAbsDiff(ref))
		}
	}
}

// Distributed SpMM must match the dense reference for every partitioning,
// replication, and stationary combination (sampled).
func TestMultiplySparseCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	const p, m, n, k = 4, 26, 22, 30
	for _, tc := range []struct {
		density    float64
		pa, pb, pc distmat.Partition
		cA, cB, cC int
		stat       Stationary
	}{
		{0.15, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1, StationaryC},
		{0.3, distmat.Block2D{}, distmat.RowBlock{}, distmat.RowBlock{}, 1, 1, 1, StationaryB},
		{0.1, distmat.ColBlock{}, distmat.RowBlock{}, distmat.ColBlock{}, 2, 1, 2, StationaryC},
		{0.5, distmat.Custom{TileRows: 7, TileCols: 9, ProcRows: 2, ProcCols: 2}, distmat.RowBlock{}, distmat.Block2D{}, 1, 1, 1, StationaryA},
		{0.0, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1, StationaryC}, // all-zero A
	} {
		global := tile.RandomCSR(rng, m, k, tc.density)
		w := shmem.NewWorld(p)
		a := distmat.NewSparse(w, global, tc.pa, tc.cA)
		b := distmat.New(w, k, n, tc.pb, tc.cB)
		c := distmat.New(w, m, n, tc.pc, tc.cC)
		w.Run(func(pe rt.PE) {
			b.FillRandom(pe, 77)
		})
		var ref, got *tile.Matrix
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				fullB := b.Gather(pe, 0)
				ref = tile.New(m, n)
				tile.SpMM(ref, global, fullB)
				// The distributed sparse matrix must hold the same data.
				if !a.Gather(pe, 0).Equal(global.ToDense()) {
					t.Error("sparse scatter corrupted A")
				}
			}
		})
		cfg := DefaultConfig()
		cfg.Stationary = tc.stat
		cfg.SyncReplicas = true
		w.Run(func(pe rt.PE) {
			MultiplySparse(pe, c, a, b, cfg)
		})
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				got = c.Gather(pe, 0)
			}
		})
		if !got.AllClose(ref, 1e-3) {
			t.Errorf("density %g %v: sparse multiply mismatch %g", tc.density, tc.stat, got.MaxAbsDiff(ref))
		}
	}
}
