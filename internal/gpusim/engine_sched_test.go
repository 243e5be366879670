package gpusim

// Scheduler equivalence and reuse tests for the PR 5 engine rebuild: the
// indexed-heap scheduler (Run) must produce bit-identical schedules to the
// legacy O(ready)-scan list scheduler (RunListOracle) — same makespans,
// same per-op start/end times, same program-order tie-breaks — and
// repeated Runs of a built DAG must not allocate.

import (
	"math/rand"
	"testing"
)

// assertSameSchedule fails unless the two results describe the identical
// schedule. Exact float equality is intentional: both schedulers compute
// the same max/add chains over the same values in the same order.
func assertSameSchedule(t *testing.T, want, got Result) {
	t.Helper()
	if want.Makespan != got.Makespan {
		t.Fatalf("makespan: oracle %g, heap %g", want.Makespan, got.Makespan)
	}
	if len(want.Timings) != len(got.Timings) {
		t.Fatalf("timing count: oracle %d, heap %d", len(want.Timings), len(got.Timings))
	}
	for i := range want.Timings {
		w, g := want.Timings[i], got.Timings[i]
		if w.Start != g.Start || w.End != g.End {
			t.Fatalf("op %d (%s): oracle [%g,%g], heap [%g,%g]",
				i, w.Label, w.Start, w.End, g.Start, g.End)
		}
	}
	for r := range want.BusyTime {
		if want.BusyTime[r] != got.BusyTime[r] {
			t.Fatalf("resource %d busy: oracle %g, heap %g", r, want.BusyTime[r], got.BusyTime[r])
		}
	}
}

// copyResult deep-copies a Result out of the engine-owned buffers so a
// later Run cannot overwrite it.
func copyResult(r Result) Result {
	out := Result{Makespan: r.Makespan}
	out.Timings = append([]OpTiming(nil), r.Timings...)
	out.BusyTime = append([]float64(nil), r.BusyTime...)
	return out
}

// randomDAG builds an engine with n ops over nres resources: random
// durations (including zero-duration ties), random dependency fan-in to
// earlier ops, random 0-3 resource sets, and duplicate labels to exercise
// interning.
func randomDAG(rng *rand.Rand, n, nres int) *Engine {
	e := NewEngine()
	res := make([]ResourceID, nres)
	for i := range res {
		res[i] = e.AddResource("r")
	}
	labels := []string{"get", "gemm", "accum", "reduce"}
	var deps []OpID
	var rs []ResourceID
	for i := 0; i < n; i++ {
		deps = deps[:0]
		for d := 0; d < rng.Intn(4) && i > 0; d++ {
			deps = append(deps, OpID(rng.Intn(i)))
		}
		rs = rs[:0]
		for r := 0; r < rng.Intn(4); r++ {
			rs = append(rs, res[rng.Intn(nres)])
		}
		// Quantized durations force plenty of exact start-time ties, the
		// regime where tie-break order is observable.
		dur := float64(rng.Intn(5)) * 0.25
		e.AddOp(labels[rng.Intn(len(labels))], OpKind(rng.Intn(4)), dur, deps, rs)
	}
	return e
}

func TestHeapSchedulerMatchesListOracleRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(400)
		nres := 1 + rng.Intn(12)
		e := randomDAG(rng, n, nres)
		oracle := e.RunListOracle()
		got := copyResult(e.Run())
		assertSameSchedule(t, oracle, got)
	}
}

// TestHeapSchedulerMatchesOracleOnStorms drives the parking-lot machinery
// hard: hundreds of identical-duration ops contending on one shared
// resource (with random second resources and a shared barrier dep), the
// incast shape where program-order ties decide everything.
func TestHeapSchedulerMatchesOracleOnStorms(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		hot := e.AddResource("nic")
		side := make([]ResourceID, 4)
		for i := range side {
			side[i] = e.AddResource("side")
		}
		barrier := e.AddOp("barrier", OpOther, 1.0, nil, nil)
		for i := 0; i < 300; i++ {
			rs := []ResourceID{hot}
			if rng.Intn(2) == 0 {
				rs = append(rs, side[rng.Intn(len(side))])
			}
			// Identical durations: every waiter ties, ids must decide.
			e.AddOp("flow", OpComm, 0.5, []OpID{barrier}, rs)
		}
		assertSameSchedule(t, e.RunListOracle(), copyResult(e.Run()))
	}
}

// TestHeapSchedulerMatchesOracleOnRoutedStorms builds DAGs shaped like a
// plan replay: ranks added one after another, each a dependency chain
// (with a look-back edge like a prefetch gate) whose ops hold 2-6
// resources drawn from a shared link pool. A lower-id op of an earlier
// rank that becomes ready late displaces a later rank's lot
// representative, and a promoted member is often bound by another of its
// links by the time it reaches the heap root, so the lazy promote's
// stale-key path runs constantly.
func TestHeapSchedulerMatchesOracleOnRoutedStorms(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var deps []OpID
	var rs []ResourceID
	for trial := 0; trial < 40; trial++ {
		e := NewEngine()
		pool := make([]ResourceID, 4+rng.Intn(20))
		for i := range pool {
			pool[i] = e.AddResource("link")
		}
		ranks, steps := 2+rng.Intn(14), 5+rng.Intn(40)
		for rank := 0; rank < ranks; rank++ {
			first := OpID(e.NumOps())
			for i := 0; i < steps; i++ {
				deps = deps[:0]
				if i > 0 {
					deps = append(deps, first+OpID(i-1))
				}
				if i > 2 && rng.Intn(3) == 0 {
					deps = append(deps, first+OpID(i-3))
				}
				rs = rs[:0]
				for _, j := range rng.Perm(len(pool))[:min(len(pool), 2+rng.Intn(5))] {
					rs = append(rs, pool[j])
				}
				dur := float64(1+rng.Intn(4)) * 0.5
				e.AddOp("flow", OpComm, dur, deps, rs)
			}
		}
		assertSameSchedule(t, e.RunListOracle(), copyResult(e.Run()))
	}
}

func TestHeapSchedulerMatchesOracleAfterIncrementalAdds(t *testing.T) {
	// Run, add more ops, Run again: the reverse CSR must be rebuilt and the
	// schedule stay pinned to the oracle.
	rng := rand.New(rand.NewSource(7))
	e := randomDAG(rng, 100, 4)
	assertSameSchedule(t, e.RunListOracle(), copyResult(e.Run()))
	for i := 0; i < 50; i++ {
		e.AddOp("late", OpComm, 0.5, []OpID{OpID(i * 2)}, nil)
	}
	assertSameSchedule(t, e.RunListOracle(), copyResult(e.Run()))
}

func TestHeapSchedulerProgramOrderTies(t *testing.T) {
	// All ops contend on one resource with identical durations: the
	// schedule must be exactly program order, the tie-break the estimator
	// relies on for in-order issue semantics.
	e := NewEngine()
	r := e.AddResource("r")
	for i := 0; i < 64; i++ {
		e.AddOp("op", OpCompute, 1.0, nil, []ResourceID{r})
	}
	run := e.Run()
	for i := 0; i < 64; i++ {
		if run.Timings[i].Start != float64(i) {
			t.Fatalf("op %d starts at %g, want %d (program order violated)", i, run.Timings[i].Start, i)
		}
	}
}

func TestEngineRunReuseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := randomDAG(rng, 500, 8)
	e.Run() // warm the scratch (reverse CSR, heap, timings)
	if allocs := testing.AllocsPerRun(10, func() { e.Run() }); allocs != 0 {
		t.Fatalf("steady-state Engine.Run allocates %.1f times, want 0", allocs)
	}
}

func TestEngineCSRStorageViews(t *testing.T) {
	e := NewEngine()
	r0 := e.AddResource("a")
	r1 := e.AddResource("b")
	x := e.AddOp("x", OpCompute, 1, nil, []ResourceID{r0})
	y := e.AddOp("y", OpComm, 2, []OpID{x}, []ResourceID{r0, r1})
	if got := e.depsOf(y); len(got) != 1 || got[0] != x {
		t.Fatalf("depsOf(y) = %v", got)
	}
	if got := e.resourcesOf(y); len(got) != 2 || got[0] != r0 || got[1] != r1 {
		t.Fatalf("resourcesOf(y) = %v", got)
	}
	if got := e.resourcesOf(x); len(got) != 1 || got[0] != r0 {
		t.Fatalf("resourcesOf(x) = %v", got)
	}
	// Labels are interned: adding many ops with the same label must not
	// grow the table.
	for i := 0; i < 100; i++ {
		e.AddOp("x", OpCompute, 1, nil, nil)
	}
	if len(e.labels) != 2 {
		t.Fatalf("label table has %d entries, want 2 (interning broken)", len(e.labels))
	}
}
