package universal

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"slicing/internal/chaos"
	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

// A run that dies inside a chain — while the chain is still being assembled,
// or at its single accumulate — must come back from execute with the error,
// every pooled buffer returned (the references of an assembled but never
// dispatched chain included), no helper goroutine left behind, and a
// checkpoint that marks a chain's steps together or not at all; and the
// resilient multiply over the same storm must land every product exactly
// once. The plan is Stationary C over 32×32 tiles of a 128³ problem: every
// rank runs four chains of four K-steps.
func TestChainAbortReleasesAndCheckpoints(t *testing.T) {
	const p, n, chainLen, victim = 4, 128, 4, 2
	fine := distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
	type world struct {
		w       rt.World
		a, b, c *distmat.Matrix
		prob    Problem
	}
	build := func(storm *chaos.Plan) world {
		w := chaos.WrapWorld(shmem.NewWorld(p), storm)
		a, b, c := distmat.New(w, n, n, fine, 1), distmat.New(w, n, n, fine, 1), distmat.New(w, n, n, fine, 1)
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 7)
			b.FillRandom(pe, 8)
		})
		return world{w, a, b, c, NewProblem(c, a, b)}
	}
	clean := build(&chaos.Plan{})
	want := referenceProduct(n, n, n, 7, 8, clean.a, clean.b, clean.w)
	base := DefaultConfig().withDefaults()
	base.Stationary = StationaryC
	base.Retry.BaseDelay = time.Microsecond
	plan := compileRank(victim, clean.prob, PlanKeyOf(clean.prob, base), nil, nil)
	if len(plan.Steps) != 4*chainLen {
		t.Fatalf("victim plan has %d steps, want %d", len(plan.Steps), 4*chainLen)
	}
	for i, s := range plan.Steps {
		if s.Chained != (i%chainLen != chainLen-1) {
			t.Fatalf("step %d Chained=%v: want chains of %d", i, s.Chained, chainLen)
		}
	}

	// (a) The victim crashes on the fetch issue of the third step of its
	// third chain. Fetches run PrefetchDepth ahead, so the walk is then in
	// the middle of assembling the second chain (steps 4 to 6 hold their
	// references, step 7 does not yet): nobody will ever run that chain.
	target := 2*chainLen + 2
	gets := 0
	for _, s := range plan.Steps[:target] {
		for _, fetched := range [...]bool{s.FetchA, s.FetchB} {
			if fetched {
				gets++
			}
		}
	}
	if ts := plan.Steps[target]; !ts.FetchA && !ts.FetchB {
		t.Fatalf("step %d fetches nothing; the fault would fire elsewhere", target)
	}
	pinned := false // the half-assembled chain must hold at least one fetched buffer
	for _, s := range plan.Steps[chainLen : target-base.PrefetchDepth-1] {
		pinned = pinned || !s.ALocal || !s.BLocal
	}
	if !pinned {
		t.Fatal("the half-assembled chain holds only local tiles; the release under test would be vacuous")
	}
	crashOnFetch := chaos.Rule{Name: "crash-on-fetch", Ops: chaos.OpGet, Ranks: []int{victim}, Rate: 1, After: gets, Kind: chaos.Crash}
	// (b) Every accumulate of the victim from its second chain's on fails,
	// so that chain exhausts its retry budget.
	failAccum := chaos.Rule{Name: "fail-accum", Ops: chaos.OpAccum, Ranks: []int{victim}, Rate: 1, After: 1, Kind: chaos.Transient}

	for _, tc := range []struct {
		name string
		rule chaos.Rule
		// landed is how many whole chains the victim lands before the fault
		// when it runs its chains itself, one after another (MaxInflight 1).
		landed int
	}{{"fetch-issue", crashOnFetch, 1}, {"accumulate", failAccum, 1}} {
		for _, inflight := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/inflight=%d", tc.name, inflight), func(t *testing.T) {
				cfg := base
				cfg.MaxInflight, cfg.Pool = inflight, gpusim.NewPool()
				goroutines := runtime.NumGoroutine()

				wd := build(&chaos.Plan{Seed: 1, Rules: []chaos.Rule{tc.rule}})
				var victimErr error
				unmarked := 0
				wd.w.Run(func(pe rt.PE) {
					wd.c.Zero(pe)
					var sched fetchSchedule
					pl := compileRank(pe.Rank(), wd.prob, PlanKeyOf(wd.prob, cfg), nil, &sched)
					var ckpt Checkpoint
					ckpt.Reset(len(pl.Steps))
					work := [1]feeder{{prob: wd.prob, plan: pl, sched: &sched, ckpt: &ckpt}}
					err := execute(pe, work[:], cfg)
					pe.Barrier()
					for first := 0; first < len(pl.Steps); first += chainLen {
						for i := first + 1; i < first+chainLen; i++ {
							if ckpt.Landed(i) != ckpt.Landed(first) {
								t.Errorf("rank %d: chain at step %d is partly marked", pe.Rank(), first)
							}
						}
					}
					if pe.Rank() != victim {
						if err != nil || ckpt.LandedCount() != len(pl.Steps) {
							t.Errorf("healthy rank %d: err %v, %d of %d steps landed", pe.Rank(), err, ckpt.LandedCount(), len(pl.Steps))
						}
						return
					}
					victimErr, unmarked = err, len(pl.Steps)-ckpt.LandedCount()
				})
				if victimErr == nil {
					t.Fatal("the victim's execute returned no error")
				}
				if unmarked < (4-tc.landed)*chainLen {
					t.Errorf("%d steps unmarked; the failed chain and everything after it is at least %d", unmarked, (4-tc.landed)*chainLen)
				}
				if inflight == 1 && unmarked != (4-tc.landed)*chainLen {
					t.Errorf("%d steps unmarked with the feeder running its own chains, want exactly %d", unmarked, (4-tc.landed)*chainLen)
				}
				if live := cfg.Pool.Stats().Live; live != 0 {
					t.Errorf("%d pool elements live after the aborted run", live)
				}

				// The same storm under the resilient multiply.
				wd = build(&chaos.Plan{Seed: 1, Rules: []chaos.Rule{tc.rule}})
				var report RecoveryReport
				var got *tile.Matrix
				wd.w.Run(func(pe rt.PE) {
					_, rep, err := MultiplyResilient(pe, wd.c, wd.a, wd.b, cfg)
					if err != nil {
						t.Errorf("rank %d: %v", pe.Rank(), err)
					}
					if pe.Rank() == 0 {
						report, got = rep, wd.c.Gather(pe, 0)
					}
				})
				if !got.AllClose(want, 1e-4) {
					t.Errorf("recovered C differs from GemmNaive by %g", got.MaxAbsDiff(want))
				}
				if !report.Recovered || len(report.FailedRanks) != 1 || report.FailedRanks[0] != victim {
					t.Errorf("report %+v: want a recovery from rank %d alone", report, victim)
				}
				if report.ReplayedOps%chainLen != 0 || report.ReplayedOps < (4-tc.landed)*chainLen ||
					(inflight == 1 && report.ReplayedOps != unmarked) {
					t.Errorf("replayed %d ops; the checkpointed run left %d steps unmarked", report.ReplayedOps, unmarked)
				}
				if live := cfg.Pool.Stats().Live; live != 0 {
					t.Errorf("%d pool elements live after the resilient run", live)
				}

				// execute waits for its helpers, so none outlives the runs.
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines before, %d after: a helper outlived execute", goroutines, runtime.NumGoroutine())
					}
				}
			})
		}
	}
}
