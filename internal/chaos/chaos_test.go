package chaos

// White-box tests of the injection machinery: the pure fire-decision
// core, scope gating, per-kind effects, and schedule reproducibility.
// The cross-backend correctness matrix lives in conformance_test.go.

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"slicing/internal/fabric"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
)

// tryOp converts an injected fault panic into an error, the same
// conversion the retrying executor performs at its op boundary.
func tryOp(f func()) (err error) {
	defer rt.CatchFault(&err)
	f()
	return nil
}

func TestDecideIsPureAndSeeded(t *testing.T) {
	p := &Plan{Seed: 42, Rules: []Rule{
		{Name: "always", Rate: 1},
		{Name: "never", Rate: 0},
		{Name: "warm", Rate: 1, After: 10},
		{Name: "coin", Rate: 0.5},
	}}
	for seq := 0; seq < 100; seq++ {
		if !p.Decide(0, 3, seq) {
			t.Fatalf("rate-1 rule did not fire at seq %d", seq)
		}
		if p.Decide(1, 3, seq) {
			t.Fatalf("rate-0 rule fired at seq %d", seq)
		}
		if got, want := p.Decide(2, 3, seq), seq >= 10; got != want {
			t.Fatalf("After=10 rule at seq %d: fired=%v", seq, got)
		}
		// Purity: the decision must not depend on evaluation history.
		if p.Decide(3, 3, seq) != p.Decide(3, 3, seq) {
			t.Fatalf("Decide is not pure at seq %d", seq)
		}
	}
	// A different seed must produce a different schedule somewhere.
	q := &Plan{Seed: 43, Rules: p.Rules}
	same := true
	for seq := 0; seq < 1000 && same; seq++ {
		same = p.Decide(3, 0, seq) == q.Decide(3, 0, seq)
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical coin-flip schedules over 1000 ops")
	}
}

func TestDecideRateIsCalibrated(t *testing.T) {
	p := &Plan{Seed: 7, Rules: []Rule{{Name: "p10", Rate: 0.1}}}
	const n = 20000
	fires := 0
	for seq := 0; seq < n; seq++ {
		if p.Decide(0, 0, seq) {
			fires++
		}
	}
	got := float64(fires) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("rate-0.1 rule fired at %.4f over %d ops", got, n)
	}
}

func TestRuleMatchScoping(t *testing.T) {
	get := Rule{Ops: OpGet}
	if !get.matches(OpGet, 0) || get.matches(OpPut, 0) || get.matches(OpAccum, 0) {
		t.Fatal("OpGet mask matched the wrong classes")
	}
	all := Rule{} // zero Ops = all classes
	if !all.matches(OpGet, 0) || !all.matches(OpPut, 0) || !all.matches(OpAccum, 0) {
		t.Fatal("zero-value Ops must match every class")
	}
	ranked := Rule{Ranks: []int{2}}
	if ranked.matches(OpGet, 0) || !ranked.matches(OpGet, 2) {
		t.Fatal("rank scoping failed")
	}
}

// runOps drives n in-scope Gets on rank 0 of a fresh single-PE shmem
// world wrapped under plan, returning the chaos state and the per-op
// errors.
func runOps(plan *Plan, n int) (*World, []error) {
	w := WrapWorld(shmem.NewWorld(1), plan)
	cw, _ := Of(w)
	errs := make([]error, 0, n)
	w.Run(func(pe rt.PE) {
		seg := pe.AllocSymmetric(16)
		dst := make([]float32, 16)
		rt.PushFaultScope(pe)
		defer rt.PopFaultScope(pe)
		for i := 0; i < n; i++ {
			errs = append(errs, tryOp(func() { pe.Get(dst, seg, 0, 0) }))
		}
	})
	return cw, errs
}

// Faults must only be raised inside a fault scope: the same rate-1 rule
// is inert before Push and after Pop.
func TestScopeGatesInjection(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Name: "storm", Rate: 1}}}
	w := WrapWorld(shmem.NewWorld(1), plan)
	cw, ok := Of(w)
	if !ok {
		t.Fatal("Of failed on a wrapped world")
	}
	w.Run(func(pe rt.PE) {
		seg := pe.AllocSymmetric(8)
		dst := make([]float32, 8)
		if err := tryOp(func() { pe.Get(dst, seg, 0, 0) }); err != nil {
			t.Errorf("fault outside any scope: %v", err)
		}
		rt.PushFaultScope(pe)
		if err := tryOp(func() { pe.Get(dst, seg, 0, 0) }); !rt.IsTransient(err) {
			t.Errorf("in-scope op under a rate-1 transient rule: %v", err)
		}
		rt.PopFaultScope(pe)
		if err := tryOp(func() { pe.Get(dst, seg, 0, 0) }); err != nil {
			t.Errorf("fault after scope popped: %v", err)
		}
		// Barriers are never injected, scope or not.
		rt.PushFaultScope(pe)
		pe.Barrier()
		rt.PopFaultScope(pe)
	})
	if got := cw.Injected().Transient; got != 1 {
		t.Fatalf("injected %d transients, want exactly 1 (the in-scope op)", got)
	}
}

func TestMaxFiresCapsARule(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Name: "capped", Rate: 1, MaxFires: 2}}}
	cw, errs := runOps(plan, 5)
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != 2 || cw.Injected().Transient != 2 {
		t.Fatalf("MaxFires=2 rule failed %d ops, injected %d", failed, cw.Injected().Transient)
	}
}

func TestCrashIsSticky(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Name: "die", Kind: Crash, Rate: 1, After: 1}}}
	cw, errs := runOps(plan, 4)
	if errs[0] != nil {
		t.Fatalf("op before After faulted: %v", errs[0])
	}
	for i, err := range errs[1:] {
		if !errors.Is(err, rt.ErrPEFailed) || !rt.IsFatal(err) {
			t.Fatalf("post-crash op %d: %v", i+1, err)
		}
	}
	if !cw.Crashed(0) {
		t.Fatal("Crashed(0) false after a crash fired")
	}
	if cw.Injected().Crashes != 1 {
		t.Fatalf("crash recorded %d times, want once per rank", cw.Injected().Crashes)
	}
	// Post-crash ops fail before drawing a sequence number: the schedule
	// up to the crash stays comparable across runs.
	if got := cw.seq[0].Load(); got != 2 {
		t.Fatalf("crashed rank consumed %d sequence numbers, want 2", got)
	}
}

func TestHangTruncatesAtOpDeadline(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Name: "wedge", Kind: Hang, Rate: 1, Delay: 10 * time.Second}}}
	w := WrapWorld(shmem.NewWorld(1), plan)
	w.Run(func(pe rt.PE) {
		seg := pe.AllocSymmetric(8)
		dst := make([]float32, 8)
		rt.SetOpDeadline(pe, time.Millisecond)
		rt.PushFaultScope(pe)
		defer rt.PopFaultScope(pe)
		start := time.Now()
		err := tryOp(func() { pe.Get(dst, seg, 0, 0) })
		if !errors.Is(err, rt.ErrOpTimeout) || !rt.IsFatal(err) {
			t.Errorf("hung op under a 1ms deadline: %v", err)
		}
		if e := time.Since(start); e > time.Second {
			t.Errorf("deadline did not truncate the hang: took %v", e)
		}
	})
}

func TestDelayAndShortHangProceed(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Name: "slow", Kind: Delay, Ops: OpGet, Rate: 1, Delay: time.Millisecond, MaxFires: 1},
		{Name: "stall", Kind: Hang, Ops: OpPut, Rate: 1, Delay: time.Millisecond, MaxFires: 1},
	}}
	w := WrapWorld(shmem.NewWorld(1), plan)
	cw, _ := Of(w)
	w.Run(func(pe rt.PE) {
		seg := pe.AllocSymmetric(4)
		rt.SetOpDeadline(pe, time.Minute) // longer than the hang: op proceeds
		rt.PushFaultScope(pe)
		defer rt.PopFaultScope(pe)
		if err := tryOp(func() { pe.Put([]float32{5}, seg, 0, 0) }); err != nil {
			t.Errorf("hung-then-proceeding put: %v", err)
		}
		dst := make([]float32, 1)
		if err := tryOp(func() { pe.Get(dst, seg, 0, 0) }); err != nil {
			t.Errorf("delayed get: %v", err)
		}
		if dst[0] != 5 {
			t.Errorf("delayed get moved no data: got %g", dst[0])
		}
	})
	st := cw.Injected()
	if st.Delayed != 1 || st.Hung != 1 {
		t.Fatalf("injected %+v, want one delay and one hang", st)
	}
}

// A DegradeRail rule fires once per world no matter how many ops match,
// and goes through the race-safe fabric.DegradeAt path.
func TestDegradeRailFiresOnce(t *testing.T) {
	f := fabric.SingleSwitch(2, 100e9, 1e12, 1e-6, "test")
	li := f.LinkID("pe1.up")
	before := f.LinkBandwidth(li)
	plan := &Plan{
		Seed:   1,
		Rules:  []Rule{{Name: "rail", Kind: DegradeRail, Rate: 1, Link: "pe1.up", Factor: 0.25}},
		Fabric: f,
	}
	cw, errs := runOps(plan, 6)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("degrade-rail failed op %d: %v", i, err)
		}
	}
	if got := cw.Injected().Degrades; got != 1 {
		t.Fatalf("degraded %d times over 6 matching ops, want once", got)
	}
	if got, want := f.LinkBandwidth(li), before*0.25; got != want {
		t.Fatalf("link bandwidth %g after degrade, want %g", got, want)
	}
}

// The fault schedule must be identical across two runs of the same
// seeded workload, and Fires must come back sorted.
func TestFireScheduleReproducible(t *testing.T) {
	plan := &Plan{Seed: 99, Rules: []Rule{
		{Name: "gets", Ops: OpGet, Rate: 0.3},
		{Name: "puts", Ops: OpPut, Rate: 0.2},
	}}
	run := func() []Fire {
		w := WrapWorld(shmem.NewWorld(2), plan)
		cw, _ := Of(w)
		w.Run(func(pe rt.PE) {
			seg := pe.AllocSymmetric(8)
			dst := make([]float32, 8)
			rt.PushFaultScope(pe)
			defer rt.PopFaultScope(pe)
			// Both ops target the issuing rank's own slot: injection only
			// keys on the initiator, and self-targeting keeps the two
			// unsynchronized ranks off each other's memory.
			for i := 0; i < 50; i++ {
				tryOp(func() { pe.Get(dst, seg, pe.Rank(), 0) })
				tryOp(func() { pe.Put(dst, seg, pe.Rank(), 0) })
			}
		})
		return cw.Fires()
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("storm never fired")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed produced different schedules:\n%v\nvs\n%v", first, second)
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Rule > b.Rule || (a.Rule == b.Rule && a.Rank > b.Rank) {
			t.Fatalf("Fires not sorted at %d: %v before %v", i, a, b)
		}
	}
}

// Wrapping must preserve the inner world's optional capabilities — and
// not invent them on worlds that lack them.
func TestWrapPreservesCapabilities(t *testing.T) {
	plan := &Plan{Seed: 1}
	dev := gpusim.PresetPVCDevice()
	topo := simnet.NewUniform(4, 100e9, 1e12, 1e-6, "caps")

	plain := WrapWorld(shmem.NewWorld(4), plan)
	if _, ok := plain.(rt.TimedWorld); ok {
		t.Fatal("wrapped shmem world claims TimedWorld")
	}
	timed := WrapWorld(gpubackend.New(topo, dev).NewWorld(4), plan)
	if _, ok := timed.(rt.TimedWorld); !ok {
		t.Fatal("wrapped gpubackend world lost TimedWorld")
	}
	if _, ok := rt.StreamStatsOf(timed); !ok {
		t.Fatal("wrapped gpubackend world lost its stream stats")
	}
	for _, w := range []rt.World{plain, timed} {
		cw, ok := Of(w)
		if !ok || cw == nil {
			t.Fatalf("Of failed for %T", w)
		}
		// PE.World must return the flavoured wrapper, not the bare inner
		// world: plan caches and serving-layer operand checks key on it.
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 && pe.World() != w {
				t.Errorf("%T: pe.World() is not the wrapped world", w)
			}
		})
	}
	if got := Wrap(shmem.Backend{}, plan).Name(); got != "shmem+chaos" {
		t.Fatalf("wrapped backend name %q", got)
	}
}

// A wrapped timed world must keep the inner backend's host threads: a
// sync Get issued on thread 1 overlaps a GEMM on thread 0 exactly as on
// the bare world, and the Get still passes through injection. Over shmem,
// which models no host threads, HostThread is the PE itself and free.
func TestChaosForwardsHostThreads(t *testing.T) {
	const n = 1 << 16
	dev := gpusim.PresetPVCDevice()
	topo := simnet.NewUniform(2, 100e9, 1e12, 1e-6, "threads")
	program := func(pe rt.PE) {
		seg := pe.AllocSymmetric(n)
		if pe.Rank() == 0 {
			rt.PushFaultScope(pe)
			rt.HostThread(pe, 1).Get(make([]float32, n), seg, 1, 0)
			rt.ChargeGemm(rt.HostThread(pe, 0), 512, 512, 512)
			rt.PopFaultScope(pe)
		}
		pe.Barrier()
	}
	bare := gpubackend.New(topo, dev).NewWorld(2)
	bare.Run(program)
	plan := &Plan{Seed: 1, Rules: []Rule{{Name: "every-get", Ops: OpGet, Rate: 1, Kind: Delay}}}
	wrapped := WrapWorld(gpubackend.New(topo, dev).NewWorld(2), plan)
	wrapped.Run(program)
	want, _ := rt.PredictedTimeOf(bare)
	got, _ := rt.PredictedTimeOf(wrapped)
	if got != want {
		t.Errorf("wrapped world predicts %v s, bare %v s", got, want)
	}
	cw, _ := Of(wrapped)
	if fires := cw.Fires(); len(fires) != 1 || fires[0].Rank != 0 || fires[0].Class != OpGet {
		t.Errorf("fires %+v, want the one thread-1 Get on rank 0", fires)
	}

	WrapWorld(shmem.NewWorld(1), plan).Run(func(pe rt.PE) {
		if rt.HostThread(pe, 1) != pe {
			t.Error("HostThread over shmem is not the PE itself")
		}
		if allocs := testing.AllocsPerRun(10, func() { rt.HostThread(pe, 1) }); allocs != 0 {
			t.Errorf("HostThread over shmem allocates %v objects", allocs)
		}
	})
}
