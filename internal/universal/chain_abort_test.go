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
)

// A run that dies inside a chain — while the chain is still being assembled,
// or at its single accumulate — must come back from execute with the error,
// every pooled buffer returned (the references of an assembled but never
// dispatched chain included) and no helper goroutine left behind. The plan
// is Stationary C over 32×32 tiles of a 128³ problem: every rank runs four
// chains of four K-steps.
func TestChainAbortReleases(t *testing.T) {
	const p, n, chainLen, victim = 4, 128, 4, 2
	fine := distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
	type world struct {
		w    rt.World
		c    *distmat.Matrix
		prob Problem
	}
	build := func(storm *chaos.Plan) world {
		w := chaos.WrapWorld(shmem.NewWorld(p), storm)
		a, b, c := distmat.New(w, n, n, fine, 1), distmat.New(w, n, n, fine, 1), distmat.New(w, n, n, fine, 1)
		return world{w, c, NewProblem(c, a, b)}
	}
	clean := build(&chaos.Plan{})
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
	}{{"fetch-issue", crashOnFetch}, {"accumulate", failAccum}} {
		for _, inflight := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/inflight=%d", tc.name, inflight), func(t *testing.T) {
				cfg := base
				cfg.MaxInflight, cfg.Pool = inflight, gpusim.NewPool()
				goroutines := runtime.NumGoroutine()

				wd := build(&chaos.Plan{Seed: 1, Rules: []chaos.Rule{tc.rule}})
				cps := []*CompiledPlan{CompilePlans(wd.prob, cfg)}
				var victimErr error
				var reports [p]int
				wd.w.Run(func(pe rt.PE) {
					wd.c.Zero(pe)
					err := execute(pe, []Problem{wd.prob}, cps, cfg, func(int) { reports[pe.Rank()]++ })
					pe.Barrier()
					if pe.Rank() != victim {
						if err != nil {
							t.Errorf("healthy rank %d: %v", pe.Rank(), err)
						}
						return
					}
					victimErr = err
				})
				if victimErr == nil {
					t.Fatal("the victim's execute returned no error")
				}
				// An aborted plan is never reported retired; the healthy
				// ranks' are, once.
				for r, n := range reports {
					want := 1
					if r == victim {
						want = 0
					}
					if n != want {
						t.Errorf("rank %d reported its plan retired %d times, want %d", r, n, want)
					}
				}
				if live := cfg.Pool.Stats().Live; live != 0 {
					t.Errorf("%d pool elements live after the aborted run", live)
				}

				// execute waits for its helpers, so none outlives the run.
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines before, %d after: a helper outlived execute", goroutines, runtime.NumGoroutine())
					}
				}
			})
		}
	}
}
