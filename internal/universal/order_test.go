package universal

import (
	"math/rand"
	"reflect"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/modelworld"
	rt "slicing/internal/runtime"
)

// skewProblem is the benchmark's universality case at 512³ (mm-skew) on a
// model world: A ColBlock at replication 2, B and C misaligned block-cyclic
// tiles, to be run Stationary A. Every A tile's run nests B tiles outside C
// tiles, so no two generated ops on one C rectangle are adjacent.
func skewProblem(w rt.World, dim, bRows, bCols, cRows, cCols int) Problem {
	return NewProblem(
		distmat.New(w, dim, dim, distmat.Custom{TileRows: cRows, TileCols: cCols, ProcRows: 2, ProcCols: 2}, 1),
		distmat.New(w, dim, dim, distmat.ColBlock{}, 2),
		distmat.New(w, dim, dim, distmat.Custom{TileRows: bRows, TileCols: bCols, ProcRows: 2, ProcCols: 2}, 1),
	)
}

func mmSkew() (Problem, Config) {
	return skewProblem(modelworld.NewWorld(4), 512, 96, 80, 72, 104), Config{Stationary: StationaryA}
}

// squareProblem is a p-PE problem with every operand dim×dim in one
// tiling, to be run Stationary C: the mm-fine, mm-block and serve shapes.
func squareProblem(p, dim int, part distmat.Partition) Problem {
	w := modelworld.NewWorld(p)
	return NewProblem(distmat.New(w, dim, dim, part, 1), distmat.New(w, dim, dim, part, 1), distmat.New(w, dim, dim, part, 1))
}

func mmFine() Problem {
	return squareProblem(4, 256, distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2})
}

// generatedOrderPlan lowers rank's ops in the generated order, as compiles
// did before the order pass.
func generatedOrderPlan(rank int, prob Problem, key PlanKey) Plan {
	steps := lowerOps(rank, prob, GenerateOps(rank, prob, key.Stationary), key.SubTile)
	resolveFetches(steps, key.CacheTiles, nil)
	return Plan{Rank: rank, Stationary: key.Stationary, Steps: steps}
}

// groupedOrderPlan is generatedOrderPlan in the order pass's C-grouped
// order, the candidate it prices against the generated one.
func groupedOrderPlan(rank int, prob Problem, key PlanKey) Plan {
	pl := generatedOrderPlan(rank, prob, key)
	if perm := groupedOrder(pl.Steps, key.Stationary); perm != nil {
		pl.Steps = permuteSteps(pl.Steps, perm)
		resolveFetches(pl.Steps, key.CacheTiles, nil)
	}
	return pl
}

// prePassPlan is the compiled plan for (prob, cfg) in the generated order:
// what CompilePlans produced, and plancache/v1 files held, before the
// order pass.
func prePassPlan(prob Problem, cfg Config) *CompiledPlan {
	cp := &CompiledPlan{Key: PlanKeyOf(prob, cfg)}
	for r := 0; r < cp.Key.NumPE; r++ {
		cp.Plans = append(cp.Plans, generatedOrderPlan(r, prob, cp.Key))
	}
	return cp
}

// accumulates counts the accumulates a plan issues: one per chain.
func accumulates(pl Plan) int {
	n := 0
	for _, s := range pl.Steps {
		if !s.Chained {
			n++
		}
	}
	return n
}

// On the universality case the order pass makes each C rectangle's steps
// adjacent, so they chain: 672 steps land 192 accumulates, one per distinct
// C rectangle, with no rank's remote bytes above its generated order's and
// no more remote gets in total.
func TestOrderPassChainsSkew(t *testing.T) {
	prob, cfg := mmSkew()
	cp := CompilePlans(prob, cfg)
	var steps, accums, gets, genGets int
	for r, pl := range cp.Plans {
		gen := generatedOrderPlan(r, prob, cp.Key)
		if got, was := remoteBytes(pl.Steps), remoteBytes(gen.Steps); got > was {
			t.Errorf("rank %d: the chosen order moves %d remote bytes, the generated %d", r, got, was)
		}
		if reflect.DeepEqual(pl, gen) {
			t.Errorf("rank %d kept the generated order", r)
		}
		steps += len(pl.Steps)
		accums += accumulates(pl)
		gets += pl.RemoteFetchBytes()
		genGets += gen.RemoteFetchBytes()
	}
	if steps != 672 || accums > 200 {
		t.Errorf("%d steps land %d accumulates, want 672 steps and at most 200 (192 C rectangles)", steps, accums)
	}
	if gets > genGets {
		t.Errorf("remote gets rose from %d to %d bytes", genGets, gets)
	}
	t.Logf("%d steps, %d accumulates, remote gets %d → %d bytes", steps, accums, genGets, gets)
}

// Where the generated order already keeps each C rectangle's steps
// together — every Stationary-C plan whose C tile is one rectangle — or no
// run writes a rectangle twice (model-replay's row layout, Stationary B),
// the pass has nothing to move and the compiled plan is the generated one.
func TestOrderPassKeepsGroupedShapes(t *testing.T) {
	w := modelworld.NewWorld(16)
	row := NewProblem(distmat.New(w, 8192, 49152, distmat.RowBlock{}, 1),
		distmat.New(w, 8192, 12288, distmat.RowBlock{}, 1), distmat.New(w, 12288, 49152, distmat.RowBlock{}, 1))
	for name, prob := range map[string]Problem{
		"mm-fine":          mmFine(),
		"mm-block":         squareProblem(4, 1024, distmat.Block2D{}),
		"serve-small":      squareProblem(4, 16, distmat.Custom{TileRows: 16, TileCols: 16, ProcRows: 2, ProcCols: 2}),
		"model-replay row": row,
	} {
		cp := CompilePlans(prob, Config{})
		for r, pl := range cp.Plans {
			gen := generatedOrderPlan(r, prob, cp.Key)
			if perm := groupedOrder(gen.Steps, cp.Key.Stationary); perm != nil {
				t.Errorf("%s rank %d: grouping moves steps: %v", name, r, perm)
			}
			if !reflect.DeepEqual(pl, gen) {
				t.Errorf("%s rank %d: compiled plan differs from the generated order", name, r)
			}
		}
	}
}

// Grouping can lose A/B reuse: here each A tile spans ten B row tiles, five
// of them remote, the tile LRU holds two, and every C row tile needs all
// ten, so the grouped order re-fetches the remote B tiles for every C
// rectangle. The walk prices that and the plan keeps the generated order.
func TestOrderPassKeepsGeneratedWhenGroupingThrashes(t *testing.T) {
	w := modelworld.NewWorld(2)
	prob := NewProblem(
		distmat.New(w, 16, 8, distmat.Custom{TileRows: 2, TileCols: 8, ProcRows: 2, ProcCols: 1}, 1),
		distmat.New(w, 16, 80, distmat.RowBlock{}, 1),
		distmat.New(w, 80, 8, distmat.Custom{TileRows: 8, TileCols: 8, ProcRows: 2, ProcCols: 1}, 1),
	)
	cp := CompilePlans(prob, Config{Stationary: StationaryA, CacheTiles: 2})
	for r, pl := range cp.Plans {
		gen, grouped := generatedOrderPlan(r, prob, cp.Key), groupedOrderPlan(r, prob, cp.Key)
		if grouped.RemoteFetchBytes() <= gen.RemoteFetchBytes() || remoteBytes(grouped.Steps) <= remoteBytes(gen.Steps) {
			t.Fatalf("rank %d: grouped order moves (%d get, %d total) bytes, generated (%d, %d): the case does not thrash",
				r, grouped.RemoteFetchBytes(), remoteBytes(grouped.Steps), gen.RemoteFetchBytes(), remoteBytes(gen.Steps))
		}
		if !reflect.DeepEqual(pl, gen) {
			t.Errorf("rank %d: compiled plan is not the generated order", r)
		}
	}
}

// The grouped order, checked against its definition independently of
// groupedOrder: in every stationary tile's run each C rectangle's steps are
// contiguous, rectangles follow their first appearance in the un-rotated
// run, and a rectangle's steps keep their generated (rotated) order — the
// §4.2 iteration offset.
func TestOrderPassKeepsIterationOffsetInGroups(t *testing.T) {
	prob, cfg := mmSkew()
	cp := CompilePlans(prob, cfg)
	type rect struct {
		c    LocalOp // CIdx, M and N only
		tile [2]int  // the stationary tile's run
	}
	rectOf := func(op LocalOp) rect {
		return rect{LocalOp{CIdx: op.CIdx, M: op.M, N: op.N}, [2]int{op.AIdx.Row, op.AIdx.Col}}
	}
	for r, pl := range cp.Plans {
		gen := GenerateOps(r, prob, cp.Key.Stationary)
		pos := map[LocalOp]int{}     // generated (rotated) position
		firstUnrot := map[rect]int{} // a rectangle's first un-rotated position
		runStart, runLen := map[[2]int]int{}, map[[2]int]int{}
		for i, op := range gen {
			pos[op] = i
			t := rectOf(op).tile
			if _, ok := runStart[t]; !ok {
				runStart[t] = i
			}
			runLen[t]++
		}
		for i, op := range gen {
			rc := rectOf(op)
			start, n := runStart[rc.tile], runLen[rc.tile]
			u := (i - start + iterOffset(op.AIdx)) % n
			if f, ok := firstUnrot[rc]; !ok || u < f {
				firstUnrot[rc] = u
			}
		}
		done := map[rect]bool{}
		for i, s := range pl.Steps {
			rc := rectOf(s.Op)
			if i == 0 || rectOf(pl.Steps[i-1].Op) != rc {
				if done[rc] {
					t.Fatalf("rank %d step %d: C rectangle %v is split", r, i, s.Op)
				}
				done[rc] = true
				if i > 0 {
					prev := rectOf(pl.Steps[i-1].Op)
					if prev.tile == rc.tile && firstUnrot[prev] > firstUnrot[rc] {
						t.Errorf("rank %d step %d: rectangle first seen at %d follows one first seen at %d",
							r, i, firstUnrot[rc], firstUnrot[prev])
					}
				}
			} else if pos[s.Op] < pos[pl.Steps[i-1].Op] {
				t.Errorf("rank %d step %d: generated positions %d then %d inside one rectangle",
					r, i, pos[pl.Steps[i-1].Op], pos[s.Op])
			}
		}
	}
}

// Sub-tile fetches move each op's own slices, so their bytes do not depend
// on order: the only thing the walk can see is accumulates, and the pass
// takes the grouped order exactly when it chains more remote bytes away.
// On the universality case that is every rank.
func TestOrderPassSubTilePicksGroupingThatChains(t *testing.T) {
	check := func(name string, prob Problem, cfg Config) (grouped int) {
		cfg.SubTileFetch = true
		cp := CompilePlans(prob, cfg)
		for r, pl := range cp.Plans {
			gen, grp := generatedOrderPlan(r, prob, cp.Key), groupedOrderPlan(r, prob, cp.Key)
			if gen.RemoteFetchBytes() != grp.RemoteFetchBytes() {
				t.Fatalf("%s rank %d: sub-tile gets depend on order: %d vs %d", name, r, gen.RemoteFetchBytes(), grp.RemoteFetchBytes())
			}
			want := gen
			if grp.RemoteAccumBytes() < gen.RemoteAccumBytes() {
				want = grp
				grouped++
			}
			if !reflect.DeepEqual(pl, want) {
				t.Errorf("%s rank %d: compiled plan is not the order with fewer remote accumulate bytes", name, r)
			}
		}
		return grouped
	}
	prob, cfg := mmSkew()
	if n := check("mm-skew", prob, cfg); n != 4 {
		t.Errorf("mm-skew: %d of 4 ranks grouped", n)
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		d := randomPlanDraw(rng)
		check("random draw", buildDraw(d), d.cfg)
	}
}

// CompileOrdered permutes the compiled steps and walks them again: each
// rank is lowered once.
func TestCompileOrderedLowersOnce(t *testing.T) {
	prob, cfg := mmSkew()
	before := PlanBuildCount()
	CompileOrdered(prob, cfg, reversedOrder)
	if got := PlanBuildCount() - before; got != 4 {
		t.Fatalf("CompileOrdered ran %d slicing passes on 4 ranks, want 4", got)
	}
}

// The order pass costs nothing where it moves nothing, and little where it
// does. The counts are CompilePlans' allocations without the pass (go1.24):
// 104 on the mm-fine shape, whose every run is one C rectangle, and 90 on
// the mm-skew shape, which the pass regroups at two allocations per rank
// (the permutation scratch and the candidate's steps).
func TestOrderPassAllocFreeWhenIdentity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const fineBefore, skewBefore, perRank = 104, 90, 4
	fine := mmFine()
	if got := testing.AllocsPerRun(10, func() { CompilePlans(fine, Config{}) }); got != fineBefore {
		t.Errorf("mm-fine compile allocates %v objects, want %d", got, fineBefore)
	}
	skew, cfg := mmSkew()
	if got := testing.AllocsPerRun(10, func() { CompilePlans(skew, cfg) }); got > skewBefore+4*perRank {
		t.Errorf("mm-skew compile allocates %v objects, want at most %d", got, skewBefore+4*perRank)
	}
}

// Op generation reuses its overlap lists and op run across stationary
// tiles, so its allocations are the growth of its result, its owned-tile
// list and three scratches, not one per tile or overlap query. Each rank
// of the mm-fine shape generates 128 ops over 16 stationary tiles in 16–17
// allocations, and of the mm-skew shape 144 ops in 13–14.
func TestGenerateOpsAllocFreePerTile(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const limit = 20
	fine := mmFine()
	skew, cfg := mmSkew()
	for rank := 0; rank < 4; rank++ {
		if got := testing.AllocsPerRun(10, func() { GenerateOps(rank, fine, StationaryC) }); got > limit {
			t.Errorf("mm-fine rank %d: GenerateOps allocates %v objects, want at most %d", rank, got, limit)
		}
		if got := testing.AllocsPerRun(10, func() { GenerateOps(rank, skew, cfg.Stationary) }); got > limit {
			t.Errorf("mm-skew rank %d: GenerateOps allocates %v objects, want at most %d", rank, got, limit)
		}
	}
}
