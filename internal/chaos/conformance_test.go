package chaos_test

// The chaos conformance suite: every backend, wrapped in the fault
// injector and hammered with a seeded transient storm, must still produce
// C within 1e-4 of the naive reference — the retry layer makes injected
// transients invisible to results — with pooled buffers balanced and the
// no-fault interception path allocation-free. Fatal faults must surface
// as errors from Multiply without wedging the world or leaking slots, and
// the one recovery mechanism — the serving loop's failover onto Exclude
// plans — must turn a crash into a correct, served result on every
// backend.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"slicing/internal/chaos"
	"slicing/internal/distmat"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/serve"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

func chaosBackends() []rt.Backend {
	topo := simnet.NewUniform(4, 100e9, 1e12, 1e-6, "chaos")
	dev := gpusim.PresetPVCDevice()
	return []rt.Backend{
		shmem.Backend{},
		gpubackend.New(topo, dev),
	}
}

// stormPlan is the standard transient-only storm: a slice of gets and
// accumulates fail retryably. At 8% the storm is dense enough that every
// run injects faults; the retry budget must be sized to match (see
// stormRetryAttempts) or P[budget consecutive fires] ≈ rateᴬ summed over
// thousands of ops escalates some op to fatal in a fair fraction of runs.
func stormPlan(seed int64) *chaos.Plan {
	return &chaos.Plan{Seed: seed, Rules: []chaos.Rule{
		{Name: "get-storm", Ops: chaos.OpGet, Rate: 0.08},
		{Name: "accum-storm", Ops: chaos.OpAccum, Rate: 0.08},
	}}
}

// stormRetryAttempts sizes the budget to the 8% storm: 0.08⁶ ≈ 2.6e-7
// per op, negligible across the whole suite.
const stormRetryAttempts = 6

// runChaosMultiply runs one universal multiply on a chaos-wrapped world
// and returns the gathered C, the reference product, the chaos state, and
// the per-rank errors.
func runChaosMultiply(t *testing.T, b rt.Backend, plan *chaos.Plan, pool *gpusim.Pool) (got, want *tile.Matrix, cw *chaos.World, errs []error) {
	t.Helper()
	const p, m, n, k = 4, 90, 70, 50
	w := chaos.Wrap(b, plan).NewWorld(p)
	cw, ok := chaos.Of(w)
	if !ok {
		t.Fatal("chaos.Of failed on a wrapped world")
	}
	// Misaligned partitions force sub-tile gets and remote accumulates on
	// every rank — plenty of interceptable one-sided traffic.
	a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
	bm := distmat.New(w, k, n, distmat.ColBlock{}, 1)
	c := distmat.New(w, m, n, distmat.Custom{TileRows: 13, TileCols: 11, ProcRows: 2, ProcCols: 2}, 1)
	cfg := universal.DefaultConfig()
	cfg.Pool = pool
	cfg.Retry.Attempts = stormRetryAttempts
	errs = make([]error, p)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 31)
		bm.FillRandom(pe, 32)
		pe.Barrier()
		if pe.Rank() == 0 {
			fullA := a.Gather(pe, 0)
			fullB := bm.Gather(pe, 0)
			want = tile.New(m, n)
			tile.GemmNaive(want, fullA, fullB)
		}
		_, errs[pe.Rank()] = universal.Multiply(pe, c, a, bm, cfg)
		pe.Barrier()
		if pe.Rank() == 0 {
			got = c.Gather(pe, 0)
		}
	})
	return got, want, cw, errs
}

// TestChaosConformanceAcrossBackends is the headline acceptance test:
// under a seeded transient-only storm, both backends produce C
// within 1e-4 of GemmNaive, the retry counter shows the storm was real,
// and the executor's pooled buffers balance to zero.
func TestChaosConformanceAcrossBackends(t *testing.T) {
	for _, b := range chaosBackends() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			var retries atomic.Int64
			pool := gpusim.NewPool()
			plan := stormPlan(1234)
			// Thread the shared retry counter through the executor config.
			const p, m, n, k = 4, 90, 70, 50
			w := chaos.Wrap(b, plan).NewWorld(p)
			cw, _ := chaos.Of(w)
			a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
			bm := distmat.New(w, k, n, distmat.ColBlock{}, 1)
			c := distmat.New(w, m, n, distmat.Custom{TileRows: 13, TileCols: 11, ProcRows: 2, ProcCols: 2}, 1)
			cfg := universal.DefaultConfig()
			cfg.Pool = pool
			cfg.Retry.Attempts = stormRetryAttempts
			cfg.Retry.Retries = &retries
			var got, want *tile.Matrix
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 31)
				bm.FillRandom(pe, 32)
				pe.Barrier()
				if pe.Rank() == 0 {
					want = tile.New(m, n)
					tile.GemmNaive(want, a.Gather(pe, 0), bm.Gather(pe, 0))
				}
				if _, err := universal.Multiply(pe, c, a, bm, cfg); err != nil {
					t.Errorf("rank %d under transient storm: %v", pe.Rank(), err)
				}
				pe.Barrier()
				if pe.Rank() == 0 {
					got = c.Gather(pe, 0)
				}
			})
			if d := maxRelDiff(want, got); d > 1e-4 {
				t.Errorf("max rel diff %g vs GemmNaive under storm", d)
			}
			if inj := cw.Injected(); inj.Transient == 0 {
				t.Error("storm injected no transients — the test exercised nothing")
			}
			if retries.Load() == 0 {
				t.Error("retry counter stayed zero under an active storm")
			}
			if live := pool.Stats().Live; live != 0 {
				t.Errorf("%d pooled elements leaked under the storm", live)
			}
		})
	}
}

// TestChaosScheduleReproducibleAcrossRuns pins the acceptance criterion
// that one seed reproduces the identical fault schedule twice on the same
// workload — per backend, since each backend issues ops differently.
func TestChaosScheduleReproducibleAcrossRuns(t *testing.T) {
	for _, mk := range []func() rt.Backend{
		func() rt.Backend { return shmem.Backend{} },
		func() rt.Backend {
			return gpubackend.New(simnet.NewUniform(4, 100e9, 1e12, 1e-6, "chaos"), gpusim.PresetPVCDevice())
		},
	} {
		plan := stormPlan(777)
		first, _, cw1, errs1 := runChaosMultiply(t, mk(), plan, gpusim.NewPool())
		second, _, cw2, errs2 := runChaosMultiply(t, mk(), plan, gpusim.NewPool())
		for r := range errs1 {
			if errs1[r] != nil || errs2[r] != nil {
				t.Fatalf("rank %d errored under a transient-only storm: run1=%v run2=%v", r, errs1[r], errs2[r])
			}
		}
		f1, f2 := cw1.Fires(), cw2.Fires()
		if len(f1) == 0 {
			t.Fatal("storm never fired")
		}
		if len(f1) != len(f2) {
			t.Fatalf("schedules differ in size: %d vs %d fires", len(f1), len(f2))
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("schedule diverged at fire %d: %v vs %v", i, f1[i], f2[i])
			}
		}
		// The fault *schedule* is pinned exactly above; the numeric results
		// only to 1e-4, because which op absorbs which retried seq — and
		// hence the float32 accumulation order — is interleaving-dependent.
		if d := maxRelDiff(first, second); d > 1e-4 {
			t.Fatalf("same seed, different results: max rel diff %g", d)
		}
	}
}

// TestChaosCrashSurfacesAsError: a whole-PE crash must come back as an
// ErrPEFailed error from Multiply on the crashed rank — not a deadlock,
// not a panic — with every pooled buffer back in the pool afterwards.
func TestChaosCrashSurfacesAsError(t *testing.T) {
	for _, b := range chaosBackends() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			plan := &chaos.Plan{Seed: 5, Rules: []chaos.Rule{
				{Name: "die", Kind: chaos.Crash, Ranks: []int{2}, Rate: 1, After: 3},
			}}
			pool := gpusim.NewPool()
			_, _, cw, errs := runChaosMultiply(t, b, plan, pool)
			if !errors.Is(errs[2], rt.ErrPEFailed) {
				t.Fatalf("crashed rank error: %v", errs[2])
			}
			if !cw.Crashed(2) {
				t.Fatal("rank 2 not marked crashed")
			}
			// Other ranks may or may not error (their accumulates onto the
			// dead rank's tiles still succeed — the shared memory is fine,
			// only rank 2's initiations fail), but none may deadlock, and
			// the pool must balance.
			if live := pool.Stats().Live; live != 0 {
				t.Fatalf("%d pooled elements leaked across the crash", live)
			}
		})
	}
}

// recoveryStormPlan crashes rank 2 mid-run (After skips its first ops) on
// top of a light transient drizzle, proving retry and recovery compose.
func recoveryStormPlan(seed int64) *chaos.Plan {
	return &chaos.Plan{Seed: seed, Rules: []chaos.Rule{
		{Name: "get-drizzle", Ops: chaos.OpGet, Rate: 0.02},
		{Name: "die", Kind: chaos.Crash, Ranks: []int{2}, Rate: 1, After: 8, MaxFires: 1},
	}}
}

// TestRecoveryConformanceAcrossBackends is the recovery contract on every
// backend: with rank 2 crashed mid-multiply under the drizzle, a server
// with failover on (serve.Config.Recover) replays the batch against the
// Exclude plan of the survivors, so every request is served with C within
// 1e-4 of GemmNaive, the crash counts as recovered rather than failed, and
// pooled buffers balance.
func TestRecoveryConformanceAcrossBackends(t *testing.T) {
	for _, b := range chaosBackends() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			const p, m, n, k, requests = 4, 90, 70, 50, 3
			pool := gpusim.NewPool()
			w := chaos.Wrap(b, recoveryStormPlan(99)).NewWorld(p)
			cw, ok := chaos.Of(w)
			if !ok {
				t.Fatal("chaos.Of failed on a wrapped world")
			}
			a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
			bm := distmat.New(w, k, n, distmat.ColBlock{}, 1)
			cs := make([]*distmat.Matrix, requests)
			for i := range cs {
				cs[i] = distmat.New(w, m, n, distmat.Custom{TileRows: 13, TileCols: 11, ProcRows: 2, ProcCols: 2}, 1)
			}
			want := tile.New(m, n)
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 31)
				bm.FillRandom(pe, 32)
				pe.Barrier()
				if pe.Rank() == 0 {
					tile.GemmNaive(want, a.Gather(pe, 0), bm.Gather(pe, 0))
				}
			})
			cfg := universal.DefaultConfig()
			cfg.Pool = pool
			cfg.Retry.Attempts = stormRetryAttempts
			s := serve.NewServer(w, serve.Config{
				Batch: 1, Queue: requests, Recover: true,
				Breaker: serve.BreakerConfig{Threshold: 2, Cooldown: time.Minute},
				Exec:    cfg,
			})
			for i, c := range cs {
				if _, err := s.Multiply(context.Background(), "storm", c, a, bm); err != nil {
					t.Errorf("request %d: %v", i, err)
				}
			}
			st := s.Stats()
			s.Close()
			if !cw.Crashed(2) {
				t.Fatal("rank 2 never crashed — the test exercised nothing")
			}
			if st.Served != requests || st.Recovered < 1 || st.Failed != 0 || st.Tripped != 0 {
				t.Errorf("served %d of %d, recovered %d, failed %d, tripped %d; want all served, at least one recovered, none failed or tripped",
					st.Served, requests, st.Recovered, st.Failed, st.Tripped)
			}
			w.Run(func(pe rt.PE) {
				if pe.Rank() != 0 {
					return
				}
				for i, c := range cs {
					if d := maxRelDiff(want, c.Gather(pe, 0)); d > 1e-4 {
						t.Errorf("request %d: max rel diff %g vs GemmNaive after recovery", i, d)
					}
				}
			})
			if live := pool.Stats().Live; live != 0 {
				t.Errorf("%d pooled elements leaked across the recovery", live)
			}
		})
	}
}

// TestChaosInterceptAllocFree guards the no-fault hot path: an in-scope
// one-sided op through the chaos wrapper with no firing rule must not
// allocate — injection is a hash and a few atomic loads, nothing more.
func TestChaosInterceptAllocFree(t *testing.T) {
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{{Name: "cold", Rate: 0}}}
	w := chaos.WrapWorld(shmem.NewWorld(1), plan)
	w.Run(func(pe rt.PE) {
		seg := pe.AllocSymmetric(32)
		dst := make([]float32, 32)
		rt.PushFaultScope(pe)
		defer rt.PopFaultScope(pe)
		pe.Get(dst, seg, 0, 0) // warm
		allocs := testing.AllocsPerRun(50, func() {
			pe.Get(dst, seg, 0, 0)
		})
		if allocs > 0 {
			t.Errorf("no-fault in-scope get allocates %v objects, want 0", allocs)
		}
	})
}

func maxRelDiff(x, y *tile.Matrix) float64 {
	worst := 0.0
	for i := range x.Data {
		diff := float64(x.Data[i] - y.Data[i])
		if diff < 0 {
			diff = -diff
		}
		scale := float64(x.Data[i])
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		if d := diff / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestAccumulateLandedAtReturn is the runtime.PE contract that answering a
// served request early relies on: a synchronous accumulate has landed in
// its target when it returns. On each backend — shmem, the timed backend
// that wraps it, and the chaos wrapper, which injects before the inner op,
// here failing the first accumulate so that its retry is the one that
// lands — a 16³ product whose one tile sits on rank 0 runs with rank 0
// excluded. Rank 1 then fetches A and B and accumulates remotely into rank
// 0's C: it is the plan's solo rank, but not C's owner. At Execute's
// retired report on rank 1, C's storage on rank 0 already holds exactly
// what it holds after the closing barrier, and that is GemmNaive's product.
func TestAccumulateLandedAtReturn(t *testing.T) {
	const p, n = 4, 16
	failFirst := &chaos.Plan{Seed: 9, Rules: []chaos.Rule{{Name: "accum-once", Ops: chaos.OpAccum, Rate: 1, MaxFires: 1}}}
	for name, b := range map[string]rt.Backend{
		"shmem":      shmem.Backend{},
		"gpubackend": chaosBackends()[1],
		"chaos":      chaos.Wrap(shmem.Backend{}, failFirst),
	} {
		t.Run(name, func(t *testing.T) {
			w := b.NewWorld(p)
			one := distmat.Custom{TileRows: n, TileCols: n, ProcRows: 2, ProcCols: 2}
			a, bm, c := distmat.New(w, n, n, one, 1), distmat.New(w, n, n, one, 1), distmat.New(w, n, n, one, 1)
			probs := []universal.Problem{universal.NewProblem(c, a, bm)}
			cfg := universal.DefaultConfig()
			cfg.Exclude = []int{0}
			cfg.Retry.Attempts = stormRetryAttempts
			cps := []*universal.CompiledPlan{universal.CompilePlans(probs[0], cfg)}
			if r, ok := cps[0].SoloRank(); !ok || r != 1 {
				t.Fatalf("SoloRank %d, %v; want rank 1", r, ok)
			}
			if steps := cps[0].Plans[1].Steps; len(steps) != 1 || steps[0].CLocal {
				t.Fatalf("rank 1 runs %d steps; want one whose accumulate is remote", len(steps))
			}
			var atReport []float32
			var want *tile.Matrix
			reports := 0
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 5)
				bm.FillRandom(pe, 6)
				c.ZeroLocal(pe)
				pe.Barrier()
				if pe.Rank() == 0 {
					want = tile.New(n, n)
					tile.GemmNaive(want, a.Gather(pe, 0), bm.Gather(pe, 0))
				}
				err := universal.Execute(pe, probs, cps, cfg, func(int) {
					reports++
					atReport = append([]float32(nil), w.SegmentStorage(c.Segment(), 0)...)
				})
				if err != nil {
					t.Errorf("rank %d: %v", pe.Rank(), err)
				}
				universal.Finish(pe, probs, cfg)
			})
			if reports != 1 {
				t.Fatalf("%d retired reports, want 1", reports)
			}
			final := w.SegmentStorage(c.Segment(), 0)
			for i := range final {
				if atReport[i] != final[i] {
					t.Fatalf("C[%d] read %g at the retired report and %g after the barrier", i, atReport[i], final[i])
				}
			}
			got := &tile.Matrix{Rows: n, Cols: n, Stride: n, Data: final[:n*n]}
			if d := maxRelDiff(want, got); d > 1e-4 {
				t.Errorf("max rel diff %g vs GemmNaive", d)
			}
			if cw, ok := chaos.Of(w); ok && cw.Injected().Transient != 1 {
				t.Errorf("%d transients injected, want the first accumulate's", cw.Injected().Transient)
			}
		})
	}
}
