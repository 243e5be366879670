package gpusim

import (
	"math"
	"testing"
)

// TestStreamEventOrdering is the ordering contract of one device's
// engines: ops on one engine serialize, dependency edges gate ops across
// engines, independent ops overlap, and QueueDelay charges each wait to
// the engine that caused it.
//
// Schedule under test (one device, a copy engine and a compute engine):
//
//	copyA  [0,2]  copy engine
//	copyB  [2,5]  copy engine         (queues behind copyA)
//	gemm1  [2,7]  compute, after copyA (dependency edge; overlaps copyB)
//	gemm2  [7,8]  compute, after copyB (ready at 5, queues behind gemm1)
func TestStreamEventOrdering(t *testing.T) {
	e := NewEngine()
	copyEng := e.AddResource("copy")
	compute := e.AddResource("compute")
	on := func(r ResourceID) []ResourceID { return []ResourceID{r} }

	copyA := e.AddOp("copyA", OpComm, 2, nil, on(copyEng))
	copyB := e.AddOp("copyB", OpComm, 3, nil, on(copyEng))
	gemm1 := e.AddOp("gemm1", OpCompute, 5, []OpID{copyA}, on(compute))
	gemm2 := e.AddOp("gemm2", OpCompute, 1, []OpID{copyB}, on(compute))
	res := e.Run()

	at := func(id OpID) (float64, float64) { return res.Timings[id].Start, res.Timings[id].End }
	for _, c := range []struct {
		name       string
		id         OpID
		start, end float64
	}{
		{"copyA", copyA, 0, 2},
		{"copyB (copy engine serialization)", copyB, 2, 5},
		{"gemm1 (copyA's dependency edge)", gemm1, 2, 7},
		{"gemm2 (queues behind gemm1 on the compute engine)", gemm2, 7, 8},
	} {
		if s, end := at(c.id); s != c.start || end != c.end {
			t.Fatalf("%s ran [%g,%g], want [%g,%g]", c.name, s, end, c.start, c.end)
		}
	}
	// The dependency edge must not serialize the two engines.
	if res.Timings[gemm1].Start >= res.Timings[copyB].End {
		t.Fatal("gemm1 failed to overlap copyB; engines must be independent")
	}

	// Queue-delay accounting: copyB queued 2 on the copy engine, gemm2
	// queued 2 on the compute engine (ready at 5, started at 7).
	per := make([]float64, e.NumResources())
	if d := e.QueueDelay(res, per); d != 4 {
		t.Fatalf("total queue delay %g, want 4", d)
	}
	if per[copyEng] != 2 || per[compute] != 2 {
		t.Fatalf("per-engine queue delay copy %g compute %g, want 2 and 2", per[copyEng], per[compute])
	}
	if res.Makespan != 8 || e.NumOps() != 4 || res.BusyTime[copyEng] != 5 {
		t.Fatalf("makespan %g, ops %d, copy busy %g; want 8, 4, 5", res.Makespan, e.NumOps(), res.BusyTime[copyEng])
	}
}

// TestStreamNotBeforeAndZeroEvent pins two edge rules: a dependency on
// host-side work delays an op past an idle engine without counting as
// queue delay, and an op with no dependency edges waits for nothing.
func TestStreamNotBeforeAndZeroEvent(t *testing.T) {
	e := NewEngine()
	engine := e.AddResource("engine")
	host := e.AddOp("host", OpOther, 3, nil, nil)
	late := e.AddOp("late", OpComm, 1, []OpID{host}, []ResourceID{engine})
	free := e.AddOp("free", OpComm, 1, nil, []ResourceID{e.AddResource("other")})
	res := e.Run()
	if tm := res.Timings[late]; tm.Start != 3 || tm.End != 4 {
		t.Fatalf("op after 3s of host work on an idle engine must run [3,4], ran [%g,%g]", tm.Start, tm.End)
	}
	if tm := res.Timings[free]; tm.Start != 0 {
		t.Fatalf("op without dependencies started at %g, want 0", tm.Start)
	}
	if d := e.QueueDelay(res, nil); d != 0 {
		t.Fatalf("waiting on a dependency is not queue delay, recorded %g", d)
	}
}

// TestTimelineReset checks Reset rewinds the schedule and its accounting
// so one engine can time successive independent measurements.
func TestTimelineReset(t *testing.T) {
	e := NewEngine()
	r := []ResourceID{e.AddResource("engine")}
	e.AddOp("a", OpComm, 2, nil, r)
	e.AddOp("b", OpComm, 2, nil, r)
	if res := e.Run(); res.Makespan != 4 || e.QueueDelay(res, nil) != 2 {
		t.Fatalf("before Reset: makespan %g, queue %g; want 4 and 2", res.Makespan, e.QueueDelay(res, nil))
	}
	e.Reset()
	if res := e.Run(); res.Makespan != 0 || e.NumOps() != 0 || e.QueueDelay(res, nil) != 0 {
		t.Fatalf("Reset left state: makespan %g, ops %d", res.Makespan, e.NumOps())
	}
	r = []ResourceID{e.AddResource("engine")}
	c := e.AddOp("c", OpComm, 1, nil, r)
	if tm := e.Run().Timings[c]; tm.Start != 0 || tm.End != 1 {
		t.Fatalf("post-Reset op should run [0,1], ran [%g,%g]", tm.Start, tm.End)
	}
}

// TestTimelineRejectsInvalidOps pins AddOp's validation panics.
func TestTimelineRejectsInvalidOps(t *testing.T) {
	e := NewEngine()
	e.AddResource("r")
	mustPanic(t, "negative duration", func() { e.AddOp("bad", OpComm, -1, nil, nil) })
	mustPanic(t, "NaN duration", func() { e.AddOp("bad", OpComm, math.NaN(), nil, nil) })
	mustPanic(t, "unknown resource", func() { e.AddOp("bad", OpComm, 1, nil, []ResourceID{99}) })
	mustPanic(t, "unknown dependency", func() { e.AddOp("bad", OpComm, 1, []OpID{0}, nil) })
	if e.NumOps() != 0 {
		t.Fatalf("rejected ops were added: %d", e.NumOps())
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	f()
}
