package autotune

import (
	"math"
	"testing"

	"slicing/internal/bench"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

func TestSearchReturnsSortedCandidates(t *testing.T) {
	cands := Search(universal.H100System(), 2048, 2048, 2048, Options{})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].CostSeconds < cands[i-1].CostSeconds {
			t.Fatalf("candidates not sorted at %d", i)
		}
	}
	for _, c := range cands {
		if c.CostSeconds <= 0 {
			t.Fatalf("non-positive cost: %v", c)
		}
	}
}

func TestSearchExcludesZeroComm(t *testing.T) {
	// With fully replicated inputs and unreplicated C, Stationary C needs
	// no communication at all; that configuration must be excluded. (The
	// Stationary B variant still accumulates remotely and stays eligible.)
	for _, c := range Search(universal.H100System(), 1024, 1024, 1024, Options{}) {
		if c.ReplAB == 8 && c.ReplC == 1 && c.Stationary == universal.StationaryC {
			t.Fatalf("zero-communication configuration %v not excluded", c)
		}
	}
}

func TestSearchMemoryBudget(t *testing.T) {
	const m, n, k = 4096, 4096, 4096
	// A budget that only fits unreplicated layouts.
	minMem := memElems(m, n, k, 8, 1, 1)
	cands := Search(universal.H100System(), m, n, k, Options{MemBudgetElems: minMem * 1.01})
	for _, c := range cands {
		if c.MemElems > minMem*1.01 {
			t.Fatalf("candidate %v exceeds the budget", c)
		}
		if c.ReplAB != 1 || c.ReplC != 1 {
			t.Fatalf("replication slipped past a tight budget: %v", c)
		}
	}
}

func TestSearchImpossibleBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("impossible budget should panic")
		}
	}()
	Search(universal.H100System(), 4096, 4096, 4096, Options{MemBudgetElems: 10})
}

func TestBestAvoidsMovingGiantMatrix(t *testing.T) {
	// MLP-2 shape: B is enormous; the winner must not pick a configuration
	// whose plan moves it wholesale. A proxy check: the winner's estimate
	// must be within 2x of the overall cost-model floor.
	cands := Search(universal.PVCSystem(), 1024, 12288, 49152, Options{})
	best := cands[0]
	if best.CostSeconds > 2*cands[0].CostSeconds {
		t.Fatalf("best candidate inconsistent: %v", best)
	}
	// And the sweep's worst should be measurably worse than the best.
	worst := cands[len(cands)-1]
	if worst.CostSeconds < best.CostSeconds*1.2 {
		t.Logf("sweep is flat (best %.4g, worst %.4g) — acceptable but unusual", best.CostSeconds, worst.CostSeconds)
	}
}

func TestSimulateTopRefinement(t *testing.T) {
	cands := Search(universal.H100System(), 2048, 2048, 2048, Options{SimulateTop: 3})
	refined := 0
	for _, c := range cands {
		if c.SimSeconds > 0 {
			refined++
		}
	}
	if refined != 3 {
		t.Fatalf("expected 3 simulated candidates, got %d", refined)
	}
	if cands[0].SimSeconds <= 0 {
		t.Fatal("winner missing simulation refinement")
	}
}

// End-to-end: instantiate the winner and verify a real multiply through it.
func TestBestInstantiateAndMultiply(t *testing.T) {
	sys := universal.SimSystem{Topo: uniformTestTopo(4), Dev: universal.H100System().Dev}
	best := Best(sys, 48, 40, 56, Options{SimulateTop: 2})
	w := shmem.NewWorld(4)
	a, b, c := best.Instantiate(w, 48, 40, 56)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
	})
	var ref, got *tile.Matrix
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			ref = tile.New(48, 40)
			tile.GemmNaive(ref, a.Gather(pe, 0), b.Gather(pe, 0))
		}
	})
	w.Run(func(pe rt.PE) {
		universal.Multiply(pe, c, a, b, best.Config())
	})
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			got = c.Gather(pe, 0)
		}
	})
	if !got.AllClose(ref, 1e-3) {
		t.Fatalf("autotuned multiply mismatch: %g", got.MaxAbsDiff(ref))
	}
}

func TestMemElems(t *testing.T) {
	// 4 PEs, no replication: each matrix split 4 ways.
	got := memElems(100, 100, 100, 4, 1, 1)
	want := 3.0 * 100 * 100 / 4
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("memElems = %g, want %g", got, want)
	}
	// Full replication of C: each PE holds all of C.
	got = memElems(100, 100, 100, 4, 1, 4)
	want = 2.0*100*100/4 + 100*100
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("memElems with cC=4 = %g, want %g", got, want)
	}
}

func uniformTestTopo(p int) interface {
	NumPE() int
	Bandwidth(int, int) float64
	Latency(int, int) float64
	Name() string
} {
	return testTopo{p}
}

type testTopo struct{ p int }

func (t testTopo) NumPE() int { return t.p }
func (t testTopo) Bandwidth(src, dst int) float64 {
	if src == dst {
		return 2000e9
	}
	return 100e9
}
func (t testTopo) Latency(src, dst int) float64 { return 1e-6 }
func (t testTopo) Name() string                 { return "test" }

// TestTunePipelineSweepsPerBackend runs the PrefetchDepth/MaxInflight
// sweep on the timed backend and checks the returned choices are
// complete, sorted best-first, and carry the stream-level queue-delay
// signal.
func TestTunePipelineSweepsPerBackend(t *testing.T) {
	sys := universal.H100System()
	const m, n, k = 256, 256, 256
	cand := Candidate{
		Part: bench.PartOuterProd, ReplAB: 1, ReplC: 1,
		Stationary: universal.StationaryA,
	}
	opt := PipelineOptions{Depths: []int{1, 4}, Inflights: []int{1, 4}}

	choices := TunePipeline(sys, m, n, k, cand, opt)
	if len(choices) != 4 {
		t.Fatalf("expected 4 choices, got %d", len(choices))
	}
	sawQueue := false
	for i, c := range choices {
		if c.Seconds <= 0 {
			t.Fatalf("choice %v has non-positive runtime", c)
		}
		if i > 0 && c.Seconds < choices[i-1].Seconds {
			t.Fatalf("choices not sorted best-first at %d", i)
		}
		if c.QueueDelaySeconds > 0 {
			sawQueue = true
		}
	}
	if !sawQueue {
		t.Fatal("timed backend observed no queue delay in any swept config")
	}
}

// PR 5: candidate pricing, simulator refinement, and pipeline sweeps run
// concurrently now; repeated searches must stay bit-identical (slot-indexed
// writes plus stable sorts — completion order must not leak into results).
func TestSearchDeterministicUnderConcurrency(t *testing.T) {
	opt := Options{SimulateTop: 4}
	want := Search(universal.PVCSystem(), 1024, 768, 512, opt)
	for trial := 0; trial < 3; trial++ {
		got := Search(universal.PVCSystem(), 1024, 768, 512, opt)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d candidate %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTunePipelineConcurrentSweepCoversGridSorted(t *testing.T) {
	// The measured Seconds of a timed execution depend on the real run's
	// dynamic schedule (they always have), so the concurrency contract is
	// structural: the concurrent sweep must return every grid point exactly
	// once, sorted best-first — never a dropped, duplicated, or misfiled
	// slot from a racing worker.
	sys := universal.H100System()
	c := Best(sys, 256, 256, 256, Options{})
	opt := PipelineOptions{Depths: []int{1, 4}, Inflights: []int{1, 2, 4}}
	for trial := 0; trial < 3; trial++ {
		got := TunePipeline(sys, 256, 256, 256, c, opt)
		if len(got) != len(opt.Depths)*len(opt.Inflights) {
			t.Fatalf("trial %d: %d choices, want %d", trial, len(got), len(opt.Depths)*len(opt.Inflights))
		}
		seen := map[[2]int]bool{}
		for i, ch := range got {
			if ch.Seconds <= 0 {
				t.Fatalf("trial %d: choice %v has non-positive seconds", trial, ch)
			}
			if i > 0 && got[i-1].Seconds > ch.Seconds {
				t.Fatalf("trial %d: choices not sorted at %d", trial, i)
			}
			seen[[2]int{ch.PrefetchDepth, ch.MaxInflight}] = true
		}
		if len(seen) != len(got) {
			t.Fatalf("trial %d: grid points dropped or duplicated: %v", trial, got)
		}
	}
}

// Options.Partitionings and Options.Replications restrict the search to
// the requested families and replication factors — the knob cluster sweeps
// use to keep the per-point search bounded at thousands of PEs.
func TestSearchRestrictedOptions(t *testing.T) {
	sys := universal.H100System()
	cands := Search(sys, 2048, 2048, 2048, Options{
		Partitionings: []bench.Partitioning{bench.PartBlock},
		Replications:  []int{1},
	})
	if len(cands) == 0 {
		t.Fatal("restricted search returned no candidates")
	}
	for _, c := range cands {
		if c.Part != bench.PartBlock {
			t.Fatalf("partitioning %v slipped past the restriction", c.Part)
		}
		if c.ReplAB != 1 || c.ReplC != 1 {
			t.Fatalf("replication (%d, %d) slipped past the restriction", c.ReplAB, c.ReplC)
		}
	}
	// The restricted winner must equal the matching candidate of the full
	// search: restriction filters, it does not re-rank.
	full := Search(sys, 2048, 2048, 2048, Options{})
	for _, c := range full {
		if c.Part == bench.PartBlock && c.ReplAB == 1 && c.ReplC == 1 {
			if c != cands[0] {
				t.Fatalf("restricted winner %+v differs from full-search candidate %+v", cands[0], c)
			}
			break
		}
	}
}
