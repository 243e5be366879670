package serve

// Failover tests (Config.Recover): a PE crash mid-batch must be absorbed
// by replan-and-replay against the surviving world — every request still
// completes correctly, the breaker never trips, and the recovery shows
// up in Recovered/Replans/ReplanMs. The kill/heal cycle additionally
// re-includes the revived rank.

import (
	"context"
	"testing"
	"time"

	"slicing/internal/chaos"
	"slicing/internal/gpusim"
	"slicing/internal/universal"
)

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
	for i := range fx.cs {
		if _, err := s.Multiply(context.Background(), fx.name, fx.cs[i], fx.a, fx.b); err != nil {
			t.Fatalf("request %d with failover on: %v", i, err)
		}
	}
	st := s.Stats()
	s.Close()
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
	for i := range fx.cs {
		if _, err := s.Multiply(context.Background(), fx.name, fx.cs[i], fx.a, fx.b); err != nil {
			t.Fatalf("request %d through the kill/heal cycle: %v", i, err)
		}
	}
	st := s.Stats()
	s.Close()
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
