package universal

import (
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
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
	// or being handed to the crew; and one partial per chain in flight.
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

// gemmAccumulate — the per-step GEMM→accumulate chain — must be heap
// allocation free in the steady state: pooled partial buffer, stack view
// headers, chunked in-place accumulate.
func TestGemmAccumulateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	const p, n = 2, 128
	w := shmem.NewWorld(p)
	a := distmat.New(w, n, n, distmat.RowBlock{}, 1)
	b := distmat.New(w, n, n, distmat.RowBlock{}, 1)
	c := distmat.New(w, n, n, distmat.RowBlock{}, 1)
	prob := NewProblem(c, a, b)
	pool := gpusim.NewPool()
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		pe.Barrier()
		if pe.Rank() != 0 {
			return
		}
		plan := BuildPlan(0, prob, StationaryC, DefaultCacheTiles)
		var op LocalOp
		found := false
		for _, s := range plan.Steps {
			if s.ALocal && s.BLocal {
				op, found = s.Op, true
				break
			}
		}
		if !found {
			t.Fatal("no fully local step in plan")
		}
		var aT, bT, aSlice, bSlice tile.Matrix
		prob.A.TileInto(pe, &aT, op.AIdx, distmat.LocalReplica)
		prob.B.TileInto(pe, &bT, op.BIdx, distmat.LocalReplica)
		ab := prob.A.TileBounds(op.AIdx)
		bb := prob.B.TileBounds(op.BIdx)
		aT.ViewInto(&aSlice, op.M.Begin-ab.Rows.Begin, op.K.Begin-ab.Cols.Begin, op.M.Len(), op.K.Len())
		bT.ViewInto(&bSlice, op.K.Begin-bb.Rows.Begin, op.N.Begin-bb.Cols.Begin, op.K.Len(), op.N.Len())
		ret := newRetrier(RetryConfig{}.withDefaults(), 1)
		gemmAccumulate(pe, prob, op, &aSlice, &bSlice, pool, 1, &ret) // warm pools
		allocs := testing.AllocsPerRun(10, func() {
			gemmAccumulate(pe, prob, op, &aSlice, &bSlice, pool, 1, &ret)
		})
		if allocs > 0 {
			t.Errorf("gemmAccumulate allocates %v objects per call in steady state, want 0", allocs)
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
