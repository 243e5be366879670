package universal

import (
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

// The fetch schedule must mirror the plan builder's LRU exactly: every
// step's non-local full-tile operand resolves to a step that actually
// fetched it, and every fetch's residency is released exactly once.
func TestPlanFetchScheduleMirrorsPlan(t *testing.T) {
	w := shmem.NewWorld(4)
	a := distmat.New(w, 96, 96, distmat.RowBlock{}, 1)
	b := distmat.New(w, 96, 96, distmat.ColBlock{}, 1)
	c := distmat.New(w, 96, 96, distmat.Block2D{}, 1)
	prob := NewProblem(c, a, b)
	for _, cacheTiles := range []int{1, 2, DefaultCacheTiles} {
		for rank := 0; rank < 4; rank++ {
			var sched fetchSchedule
			plan := compileRank(rank, prob, PlanKey{Stationary: StationaryC, CacheTiles: cacheTiles}, nil, &sched)
			released := map[fetchRef]int{}
			prevStep := 0
			for _, ev := range sched.evictions {
				released[ev.ref]++
				if ev.atStep < prevStep {
					t.Fatalf("evictions out of order: step %d after %d", ev.atStep, prevStep)
				}
				prevStep = ev.atStep
				if ev.atStep < len(plan.Steps) && ev.ref.step > ev.atStep {
					t.Fatalf("rank %d cache %d: fetch %+v released at step %d before it was used",
						rank, cacheTiles, ev.ref, ev.atStep)
				}
			}
			fetches := 0
			for i, s := range plan.Steps {
				if s.SubTile {
					continue
				}
				if s.FetchA {
					fetches++
					if sched.srcA[i] != i {
						t.Fatalf("step %d fetches A but srcA = %d", i, sched.srcA[i])
					}
				}
				if s.FetchB {
					fetches++
				}
				if !s.ALocal && !s.FetchA {
					f := sched.srcA[i]
					if f < 0 || f >= i || !plan.Steps[f].FetchA {
						t.Fatalf("step %d cache-hit A resolves to invalid fetch step %d", i, f)
					}
				}
				if !s.BLocal && !s.FetchB {
					f := sched.srcB[i]
					if f < 0 || f >= i || !plan.Steps[f].FetchB {
						t.Fatalf("step %d cache-hit B resolves to invalid fetch step %d", i, f)
					}
				}
			}
			total := 0
			for ref, n := range released {
				if n != 1 {
					t.Fatalf("fetch %+v released %d times", ref, n)
				}
				total++
			}
			if total != fetches {
				t.Fatalf("rank %d cache %d: %d fetches but %d releases", rank, cacheTiles, fetches, total)
			}
		}
	}
}

// The walk chains step i to step i+1 exactly when both write the same C
// rectangle and the chain is still shorter than the cache capacity — in
// either fetch mode, since the rule never looks at the operands.
func TestResolveFetchesChainBoundaries(t *testing.T) {
	op := func(cCol, nEnd, k int) LocalOp {
		return LocalOp{
			AIdx: index.TileIdx{Col: k}, BIdx: index.TileIdx{Row: k, Col: cCol}, CIdx: index.TileIdx{Col: cCol},
			M: index.NewInterval(0, 8), K: index.NewInterval(8*k, 8*k+8), N: index.NewInterval(16*cCol, nEnd),
		}
	}
	// A run of five on C(0,0), a run of two on C(0,1), then one more op on
	// C(0,1) with a shorter N interval, then a lone op back on C(0,0).
	ops := []LocalOp{
		op(0, 16, 0), op(0, 16, 1), op(0, 16, 2), op(0, 16, 3), op(0, 16, 4),
		op(1, 32, 0), op(1, 32, 1),
		op(1, 24, 2),
		op(0, 16, 5),
	}
	for _, tc := range []struct {
		cacheTiles int
		want       string // one letter per step: c = Chained
	}{
		{3, "cc.c.c..."}, // the run of five splits 3+2
		{1, "........."}, // capacity 1 chains nothing
		{0, "cccc.c..."}, // default capacity: whole runs
	} {
		for _, subTile := range []bool{false, true} {
			steps := make([]Step, len(ops))
			for i := range steps {
				steps[i] = Step{Op: ops[i], SubTile: subTile}
			}
			if !resolveFetches(steps, tc.cacheTiles, nil) {
				t.Errorf("cap %d: the walk reports no change on unresolved steps", tc.cacheTiles)
			}
			got := make([]byte, len(steps))
			for i, s := range steps {
				got[i] = '.'
				if s.Chained {
					got[i] = 'c'
				}
			}
			if string(got) != tc.want {
				t.Errorf("cap %d subTile %v: chains %s, want %s", tc.cacheTiles, subTile, got, tc.want)
			}
			if resolveFetches(steps, tc.cacheTiles, nil) {
				t.Errorf("cap %d subTile %v: a second walk over its own flags reports a change", tc.cacheTiles, subTile)
			}
		}
	}
}

// The executor's resident tile memory must be bounded by the LRU capacity,
// not by the number of fetches in the plan: on a many-tile problem, running
// with a tiny tile cache must peak well below running with a cache big
// enough that nothing is ever evicted (which is what the seed executor
// did for every cache size — it retained all fetched tiles until the end).
func TestExecutePoolBoundedByTileCache(t *testing.T) {
	const p, n = 4, 256
	run := func(cacheTiles int) int {
		w := shmem.NewWorld(p)
		part := distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
		a := distmat.New(w, n, n, part, 1)
		b := distmat.New(w, n, n, part, 1)
		c := distmat.New(w, n, n, distmat.Block2D{}, 1)
		pool := gpusim.NewPool()
		cfg := DefaultConfig()
		cfg.Stationary = StationaryC
		cfg.CacheTiles = cacheTiles
		cfg.Pool = pool
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 1)
			b.FillRandom(pe, 2)
			Multiply(pe, c, a, b, cfg)
		})
		return pool.Stats().HighWater
	}
	small := run(2)
	unbounded := run(1 << 20) // nothing ever evicted: the seed behaviour
	if small == 0 || unbounded == 0 {
		t.Fatal("pool was never used")
	}
	if small >= unbounded {
		t.Fatalf("high water with 2-tile cache (%d elems) not below unbounded cache (%d elems): eviction is not recycling buffers",
			small, unbounded)
	}
}

// Repeating one multiply over a shared pool must keep the pool balanced and
// bounded: nothing stays live after any multiply, and the number of buffers
// ever allocated is bounded by what the plan and config let the PEs hold at
// once — however many times the multiply repeats, because the steady state
// recycles. (Which repeat allocates the last fresh buffer depends on how
// the PEs interleave on the shared pool; that they stop does not.)
func TestExecuteSteadyStateReusesPool(t *testing.T) {
	const p, n, repeats = 4, 96, 256
	w := shmem.NewWorld(p)
	a := distmat.New(w, n, n, distmat.RowBlock{}, 1)
	b := distmat.New(w, n, n, distmat.ColBlock{}, 1)
	c := distmat.New(w, n, n, distmat.Block2D{}, 1)
	pool := gpusim.NewPool()
	cfg := DefaultConfig()
	cfg.Pool = pool
	cfg.Stationary = StationaryC
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
	})
	for i := 0; i < repeats; i++ {
		w.Run(func(pe rt.PE) {
			Multiply(pe, c, a, b, cfg)
		})
		if live := pool.Stats().Live; live != 0 {
			t.Fatalf("%d pool elements still live after multiply %d", live, i)
		}
	}
	// Buffers one PE can hold at once: the LRU-resident tiles; the fetches
	// issued ahead of their step (two operands per step of the prefetch
	// window); the tiles already evicted but still read by a chain in flight
	// or being assembled (this plan has no same-C runs, so a chain is one
	// step with two operands); and one partial per chain in flight.
	perPE := cfg.CacheTiles + 2*(cfg.PrefetchDepth+1) + 2*(cfg.MaxInflight+1) + cfg.MaxInflight
	// The pool allocates only when a size bucket has no free buffer, so each
	// bucket allocates at most the peak number of buffers live in it at once.
	bound := int64(p * perPE * len(pool.BucketSizes()))
	if bound >= repeats {
		t.Fatalf("bound %d would not catch one leaked allocation per multiply over %d repeats", bound, repeats)
	}
	if allocs := pool.Stats().Allocs; allocs == 0 || allocs > bound {
		t.Fatalf("%d fresh pool buffers over %d multiplies, want 1..%d (%d PEs x %d buffers x %d size buckets)",
			allocs, repeats, bound, p, perPE, len(pool.BucketSizes()))
	}
}

// runChain — a K-run's GEMMs into one partial, then one accumulate — must be
// heap allocation free in the steady state: one pooled partial per chain,
// stack view headers, chunked in-place accumulate.
func TestGemmAccumulateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	// One PE, C a single tile, three tiles along K: the whole plan is one
	// 3-step chain over local operands.
	const m, n, k = 48, 40, 96
	w := shmem.NewWorld(1)
	a := distmat.New(w, m, k, distmat.Custom{TileRows: m, TileCols: k / 3, ProcRows: 1, ProcCols: 1}, 1)
	b := distmat.New(w, k, n, distmat.Custom{TileRows: k / 3, TileCols: n, ProcRows: 1, ProcCols: 1}, 1)
	c := distmat.New(w, m, n, distmat.Custom{TileRows: m, TileCols: n, ProcRows: 1, ProcCols: 1}, 1)
	prob := NewProblem(c, a, b)
	cfg := DefaultConfig().withDefaults()
	cfg.MaxInflight = 1 // the feeder runs its chains itself
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		var sched fetchSchedule
		plan := compileRank(0, prob, PlanKeyOf(prob, cfg), nil, &sched)
		if len(plan.Steps) != 3 || !plan.Steps[0].Chained || !plan.Steps[1].Chained || plan.Steps[2].Chained {
			t.Fatalf("want one 3-step chain, got %+v", plan.Steps)
		}
		// Feed once: the views stay valid, so the chain can be re-run alone.
		f := &feeder{prob: prob, plan: plan, sched: &sched, steps: make([]stepState, 3)}
		f.feed(&crew{pe: pe, cfg: cfg, tasks: make(chan chainTask)})
		if err := f.c.box.err(); err != nil {
			t.Fatal(err)
		}
		poolBefore, opsBefore := cfg.Pool.Stats(), w.Stats()
		const runs = 10
		allocs := testing.AllocsPerRun(runs-1, func() { f.runChain(0, 3, 0, &f.ret) }) // AllocsPerRun adds a warm-up run
		if allocs > 0 {
			t.Errorf("runChain allocates %v objects per chain in steady state, want 0", allocs)
		}
		after, opsAfter := cfg.Pool.Stats(), w.Stats()
		if gets := after.Allocs + after.Hits - poolBefore.Allocs - poolBefore.Hits; gets != runs {
			t.Errorf("%d pool gets over %d chains, want one partial per chain", gets, runs)
		}
		if ops, bytes := opsAfter.LocalOps-opsBefore.LocalOps, opsAfter.LocalAccumBytes-opsBefore.LocalAccumBytes; ops != runs || bytes != runs*m*n*4 {
			t.Errorf("%d one-sided ops moving %d accumulate bytes over %d chains, want one %d-byte accumulate per chain", ops, bytes, runs, m*n*4)
		}
		if live := after.Live; live != 0 {
			t.Errorf("%d pool elements live after the chains", live)
		}
	})
}

// Multiplies driven through the slot-based executor must stay correct when
// evictions are frequent (CacheTiles=1) and in sub-tile mode, where every
// step's slices are single-use pooled buffers.
func TestExecuteCorrectUnderEvictionPressure(t *testing.T) {
	const p, m, n, k = 4, 100, 90, 110
	for _, sub := range []bool{false, true} {
		w := shmem.NewWorld(p)
		a := distmat.New(w, m, k, distmat.Custom{TileRows: 7, TileCols: 11, ProcRows: 2, ProcCols: 2}, 1)
		b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
		c := distmat.New(w, m, n, distmat.Block2D{}, 1)
		cfg := DefaultConfig()
		cfg.CacheTiles = 1
		cfg.SubTileFetch = sub
		cfg.Stationary = StationaryC
		var got, want *tile.Matrix
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 5)
			b.FillRandom(pe, 6)
			Multiply(pe, c, a, b, cfg)
			pe.Barrier()
			if pe.Rank() == 0 {
				got = c.Gather(pe, 0)
				want = tile.New(m, n)
				tile.GemmNaive(want, a.Gather(pe, 0), b.Gather(pe, 0))
			}
		})
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("subTile=%v: executor mismatch under eviction pressure: %g", sub, got.MaxAbsDiff(want))
		}
	}
}

// What a warm multiply may still allocate is its fixed cost, not a function
// of the plan: the world's Run (its shared state and a goroutine start per
// rank), the caller's closure, and per PE the work array that escapes
// through the task channel — 10 objects on 4 PEs. The budgets are the
// benchmark's mm-fine and mm-skew shapes (512 and 672 steps per op), and
// one compiled plan at MaxInflight 1, which starts no helper at all.
func TestMultiplySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	const p = 4
	fine := distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
	for _, tc := range []struct {
		name                string
		m, n, k             int
		partA, partB, partC distmat.Partition
		replA               int
		stat                Stationary
	}{
		{"mm-fine", 256, 256, 256, fine, fine, fine, 1, StationaryC},
		{"mm-skew", 512, 512, 512, distmat.ColBlock{},
			distmat.Custom{TileRows: 96, TileCols: 80, ProcRows: 2, ProcCols: 2},
			distmat.Custom{TileRows: 72, TileCols: 104, ProcRows: 2, ProcCols: 2}, 2, StationaryA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := shmem.NewWorld(p)
			a := distmat.New(w, tc.m, tc.k, tc.partA, tc.replA)
			b := distmat.New(w, tc.k, tc.n, tc.partB, 1)
			c := distmat.New(w, tc.m, tc.n, tc.partC, 1)
			cfg := DefaultConfig()
			cfg.Stationary, cfg.Pool = tc.stat, gpusim.NewPool() // nil Plans: the world's cache
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 1)
				b.FillRandom(pe, 2)
			})
			multiply := func() { w.Run(func(pe rt.PE) { Multiply(pe, c, a, b, cfg) }) }
			multiply() // compile, fill the pools
			if allocs := testing.AllocsPerRun(10, multiply); allocs > 16 {
				t.Errorf("a warm Multiply on %d PEs allocates %v objects, want at most 16", p, allocs)
			}

			// One rank's Execute of the compiled plan with no helpers: the
			// work slice and nothing else.
			cfg.MaxInflight = 1
			prob := NewProblem(c, a, b)
			probs, cps := []Problem{prob}, []*CompiledPlan{PlansOf(w).GetOrCompile(prob, cfg)}
			w.Run(func(pe rt.PE) {
				c.Zero(pe)
				if pe.Rank() == 0 {
					Execute(pe, probs, cps, cfg) // warm this rank's crew record
					if allocs := testing.AllocsPerRun(5, func() { Execute(pe, probs, cps, cfg) }); allocs > 1 {
						t.Errorf("a warm Execute at MaxInflight 1 allocates %v objects, want at most 1", allocs)
					}
				}
				pe.Barrier()
			})
		})
	}
}
