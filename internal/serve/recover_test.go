package serve

// Failover tests (Config.Recover): a PE crash mid-batch must be absorbed
// by replan-and-replay against the surviving world — every request still
// completes correctly, the breaker never trips, and the recovery shows
// up in Recovered/Replans/ReplanMs. The kill/heal cycle additionally
// re-includes the revived rank, and a second rank dying during a replay
// costs one more replan, not the batch. Each test logs (-v) what the
// recovery cost: the replan times and the recovered batch's wall time
// against the median healthy one.

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"slicing/internal/chaos"
	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// serveTimed submits fx's requests one at a time and returns each one's
// wall time and whether a failover replay recovered its batch.
func serveTimed(t *testing.T, s *Server, fx *tenantFixture) (lat []time.Duration, recovered []bool) {
	t.Helper()
	for i := range fx.cs {
		before := s.Stats().Recovered
		t0 := time.Now()
		if _, err := s.Multiply(context.Background(), fx.name, fx.cs[i], fx.a, fx.b); err != nil {
			t.Fatalf("request %d with failover on: %v", i, err)
		}
		lat = append(lat, time.Since(t0))
		recovered = append(recovered, s.Stats().Recovered > before)
	}
	return lat, recovered
}

// logReplayCost reports what recovery cost: every replan's lookup-through-
// recompile time, and each recovered request's wall time (its failed
// attempts, replans and the replay) against the median healthy request.
func logReplayCost(t *testing.T, st Stats, lat []time.Duration, recovered []bool) {
	t.Helper()
	var healthy, replayed []time.Duration
	for i, d := range lat {
		if recovered[i] {
			replayed = append(replayed, d)
		} else {
			healthy = append(healthy, d)
		}
	}
	slices.Sort(healthy)
	median := time.Duration(0)
	if len(healthy) > 0 {
		median = healthy[len(healthy)/2]
	}
	t.Logf("replan ms %.3f; recovered request(s) %v vs healthy median %v", st.ReplanMs, replayed, median)
}

// TestServeFailoverRecoversCrash is the serving half of the tentpole: a
// rank crashes mid-run under a seeded plan, and the server replays the
// batch against the survivors instead of failing it.
func TestServeFailoverRecoversCrash(t *testing.T) {
	plan := &chaos.Plan{Seed: 11, Rules: []chaos.Rule{
		{Name: "die", Kind: chaos.Crash, Ranks: []int{1}, Rate: 1, After: 6, MaxFires: 1},
	}}
	w, cw := chaosWorld(plan)
	fx := makeTenant(w, "survivor", 24, 20, 16, 6, 77)
	pool := gpusim.NewPool()
	s := NewServer(w, Config{
		Batch: 1, Queue: 16, Recover: true,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Exec:    universal.Config{Pool: pool},
	})
	lat, recovered := serveTimed(t, s, fx)
	st := s.Stats()
	s.Close()
	logReplayCost(t, st, lat, recovered)
	if !cw.Crashed(1) {
		t.Fatal("crash rule never fired — the test exercised nothing")
	}
	if st.Recovered < 1 || st.Replans < 1 {
		t.Fatalf("recovery accounting: recovered %d replans %d", st.Recovered, st.Replans)
	}
	if int64(len(st.ReplanMs)) != st.Replans {
		t.Fatalf("%d ReplanMs samples for %d replans", len(st.ReplanMs), st.Replans)
	}
	// Absorbed faults must not reach the failure accounting or the breaker.
	if st.Failed != 0 || st.Tripped != 0 || st.Shed != 0 {
		t.Fatalf("absorbed crash leaked into failure accounting: %+v", st)
	}
	ten := st.Tenants["survivor"]
	if ten.Served != int64(len(fx.cs)) || ten.Recovered != st.Recovered {
		t.Fatalf("tenant accounting: %+v", ten)
	}
	checkResults(t, w, []*tenantFixture{fx})
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("%d pooled elements leaked across the failover", live)
	}
}

// TestServeFailoverKillHealCycle scripts crash → recover-on-survivors →
// heal → re-include: after the Heal rule revives rank 1, the per-batch
// membership sync folds it back into the plans and serving continues on
// the full world.
func TestServeFailoverKillHealCycle(t *testing.T) {
	plan := &chaos.Plan{Seed: 21, Rules: []chaos.Rule{
		{Name: "die", Kind: chaos.Crash, Ranks: []int{1}, Rate: 1, After: 6, MaxFires: 1},
		// Survivor traffic triggers the heal: crashed ranks draw no sequence
		// numbers, so this necessarily fires from another rank's op stream.
		{Name: "mend", Kind: chaos.Heal, Target: 1, Rate: 1, After: 60, MaxFires: 1},
	}}
	w, cw := chaosWorld(plan)
	fx := makeTenant(w, "cycler", 24, 20, 16, 10, 33)
	pool := gpusim.NewPool()
	s := NewServer(w, Config{
		Batch: 1, Queue: 16, Recover: true,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Exec:    universal.Config{Pool: pool},
	})
	lat, recovered := serveTimed(t, s, fx)
	st := s.Stats()
	s.Close()
	logReplayCost(t, st, lat, recovered)
	inj := cw.Injected()
	if inj.Crashes != 1 || inj.Heals != 1 {
		t.Fatalf("cycle did not complete: %+v", inj)
	}
	if cw.RankFailed(1) {
		t.Fatal("rank 1 still failed after the heal")
	}
	if st.Recovered < 1 {
		t.Fatalf("no batch recovered across the cycle: %+v", st)
	}
	if st.Failed != 0 || st.Tripped != 0 {
		t.Fatalf("cycle leaked into failure accounting: %+v", st)
	}
	checkResults(t, w, []*tenantFixture{fx})
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("%d pooled elements leaked across the cycle", live)
	}
}

// TestServeFailoverSurvivesCrashDuringReplay: a second rank dying while the
// first death's replay runs costs one more failover attempt, not the batch.
// Rank 1 crashes on a get halfway through the first request; rank 3 crashes
// on its first get of that batch's replay, the one that adopts rank 1's
// ops. The batch lands on the two survivors after two replans, and later
// batches run on them from the start.
func TestServeFailoverSurvivesCrashDuringReplay(t *testing.T) {
	// Crash points are get counts of the same fixture's plans, compiled on
	// a plain world (the plan key does not name the world): rank 3 skips
	// its whole healthy share, so its next get is the replay's.
	probe := makeTenant(shmem.NewWorld(4), "probe", 24, 20, 16, 1, 0)
	gets := func(exclude []int, rank int) int {
		cp := universal.CompilePlans(universal.NewProblem(probe.cs[0], probe.a, probe.b), universal.Config{Exclude: exclude})
		n := 0
		for _, st := range cp.Plans[rank].Steps {
			for _, fetched := range [...]bool{st.FetchA, st.FetchB} {
				if fetched {
					n++
				}
			}
		}
		return n
	}
	rank1, rank3, replay3 := gets(nil, 1), gets(nil, 3), gets([]int{1}, 3)
	if rank1 == 0 || replay3 == 0 {
		t.Fatalf("rank 1 issues %d gets, rank 3 %d in the replay; a crash could not be placed", rank1, replay3)
	}
	plan := &chaos.Plan{Seed: 31, Rules: []chaos.Rule{
		{Name: "die", Kind: chaos.Crash, Ops: chaos.OpGet, Ranks: []int{1}, Rate: 1, After: rank1 / 2},
		{Name: "die-in-replay", Kind: chaos.Crash, Ops: chaos.OpGet, Ranks: []int{3}, Rate: 1, After: rank3},
	}}
	w, cw := chaosWorld(plan)
	fx := makeTenant(w, "twice", 24, 20, 16, 4, 55)
	pool := gpusim.NewPool()
	s := NewServer(w, Config{
		Batch: 1, Queue: 16, Recover: true,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Exec:    universal.Config{Pool: pool},
	})
	lat, recovered := serveTimed(t, s, fx)
	st := s.Stats()
	s.Close()
	logReplayCost(t, st, lat, recovered)
	if !cw.Crashed(1) || !cw.Crashed(3) {
		t.Fatalf("crashed: rank 1 %v, rank 3 %v; want both", cw.Crashed(1), cw.Crashed(3))
	}
	// One recovered batch that needed two replans: both deaths hit it.
	if !recovered[0] || st.Recovered != 1 || st.Replans != 2 {
		t.Fatalf("recovered %v (total %d) after %d replans; want the first batch alone, after 2", recovered, st.Recovered, st.Replans)
	}
	if st.Served != int64(len(fx.cs)) || st.Failed != 0 || st.Tripped != 0 {
		t.Fatalf("repeated death leaked into failure accounting: %+v", st)
	}
	if dead := s.member.Excluded(); !reflect.DeepEqual(dead, []int{1, 3}) {
		t.Fatalf("membership's dead set %v, want [1 3]", dead)
	}
	checkResults(t, w, []*tenantFixture{fx})
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("%d pooled elements leaked across the two failovers", live)
	}
}

// TestFailoverSkipsReleasedRequests: a batch mixes solo requests, which
// rank 0 answers mid-batch, with a 256³ request on all four ranks, and
// rank 2 crashes under the 256³ one. The failover replay must run the
// 256³ request alone: an answered request's C is its caller's again, so
// re-zeroing it would destroy whatever the caller did with it since. Each
// solo caller checks its C against GemmNaive on the reply and then
// overwrites it with a marker, which must still be there once the server
// has closed. Rank 1 stalls the first activation, so the markers are
// written before the replay starts.
func TestFailoverSkipsReleasedRequests(t *testing.T) {
	plan := &chaos.Plan{Seed: 41, Rules: []chaos.Rule{
		{Name: "die", Kind: chaos.Crash, Ranks: []int{2}, Rate: 1},
		{Name: "stall", Kind: chaos.Delay, Ranks: []int{1}, Rate: 1, MaxFires: 1, Delay: 100 * time.Millisecond},
	}}
	w, cw := chaosWorld(plan)
	quad := distmat.Custom{TileRows: 128, TileCols: 128, ProcRows: 2, ProcCols: 2}
	big := makeTenantOn(w, "big", 256, 256, 256, 1, 3, quad, quad, quad)
	solos := []*tenantFixture{
		makeSoloTenant(w, "solo-a", 16, 16, 16, 3, 4),
		makeSoloTenant(w, "solo-b", 24, 20, 16, 3, 5),
	}
	pool := gpusim.NewPool()
	s := newServer(w, Config{
		Batch: 8, Queue: 8, Recover: true,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Exec:    universal.Config{Pool: pool},
	})
	const marker = -7
	storage := func(f *tenantFixture, c *distmat.Matrix) []float32 {
		return w.SegmentStorage(c.Segment(), 0)[:f.m*f.n] // one row-major tile on rank 0
	}
	var wg sync.WaitGroup
	submitted := 0
	for _, f := range append([]*tenantFixture{big}, solos...) {
		for _, c := range f.cs {
			submitted++
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Multiply(context.Background(), f.name, c, f.a, f.b); err != nil {
					t.Errorf("%s: %v", f.name, err)
					return
				}
				if f == big {
					return
				}
				got := storage(f, c)
				if d := maxRelDiff(f.ref, &tile.Matrix{Rows: f.m, Cols: f.n, Stride: f.n, Data: got}); d > 1e-4 {
					t.Errorf("%s: released C off GemmNaive by %g", f.name, d)
				}
				for i := range got {
					got[i] = marker
				}
			}()
		}
	}
	for queuedLen(s) < submitted {
		time.Sleep(time.Millisecond)
	}
	s.Start()
	wg.Wait()
	st := s.Stats()
	s.Close()
	if !cw.Crashed(2) {
		t.Fatal("crash rule never fired — the test exercised nothing")
	}
	// One batch; the solo requests were answered before the crash was
	// noticed, so only the 256³ request was replayed and recovered.
	if st.Batches != 1 || st.Served != int64(submitted) || st.Recovered != 1 || st.Replans < 1 || st.Failed != 0 {
		t.Fatalf("want one batch, %d served, only the 256³ request recovered: %+v", submitted, st)
	}
	for _, f := range solos {
		for i, c := range f.cs {
			if v := storage(f, c)[0]; v != marker {
				t.Errorf("%s request %d: C reads %g after the replay, want the caller's marker: the replay re-ran it", f.name, i, v)
			}
		}
	}
	checkResults(t, w, []*tenantFixture{big})
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("%d pooled elements leaked across the failover", live)
	}
	// Exactly one reply per request: none left waiting in a pooled request.
	for r, ok := s.free.Get().(*request); ok; r, ok = s.free.Get().(*request) {
		if len(r.done) != 0 {
			t.Fatal("a pooled request holds a second reply")
		}
	}
}
