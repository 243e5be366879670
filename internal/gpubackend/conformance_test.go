package gpubackend_test

// The backend conformance suite: the universal algorithm must run
// unmodified on every runtime.Backend and produce the same C (within 1e-4
// relative tolerance), the timed backend must emit modeled wall-clocks
// comparable with the §4.3 cost model's estimate for the same problem, and
// it must observe the queue-depth and accumulate/GEMM interference delays
// of a deep, accumulate-heavy pipeline. docs/BACKENDS.md points new
// backends at this file: add the backend to conformanceBackends and the
// whole matrix applies.

import (
	"math"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// conformanceBackends lists every backend the suite runs for a system: the
// untimed reference plus the timed backend.
func conformanceBackends(sys universal.SimSystem) []rt.Backend {
	return []rt.Backend{
		shmem.Backend{},
		gpubackend.New(sys.Topo, sys.Dev),
	}
}

// scenario is one partitioning/replication combination exercised on every
// backend.
type scenario struct {
	name                string
	m, n, k             int
	partA, partB, partC distmat.Partition
	ca, cb, cc          int
}

func scenarios(slots int) []scenario {
	pr, pc := distmat.NearSquareFactors(slots)
	return []scenario{
		{"aligned-2d", 96, 80, 64,
			distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}, 1, 1, 1},
		{"misaligned", 90, 70, 50,
			distmat.RowBlock{}, distmat.ColBlock{},
			distmat.Custom{TileRows: 13, TileCols: 11, ProcRows: pr, ProcCols: pc}, 1, 1, 1},
		{"replicated-c", 64, 64, 96,
			distmat.RowBlock{}, distmat.RowBlock{}, distmat.RowBlock{}, 1, 1, 2},
	}
}

// runScenario executes sc's universal multiply on an existing world with
// the given config and returns the gathered C and the resolved stationary.
// Every conformance test drives worlds through it, so the setup (operands,
// seeds, gather) stays identical across backends and configs.
func runScenario(w rt.World, sc scenario, cfg universal.Config) (*tile.Matrix, universal.Stationary) {
	a := distmat.New(w, sc.m, sc.k, sc.partA, sc.ca)
	bm := distmat.New(w, sc.k, sc.n, sc.partB, sc.cb)
	c := distmat.New(w, sc.m, sc.n, sc.partC, sc.cc)
	var out *tile.Matrix
	var stat universal.Stationary
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 11)
		bm.FillRandom(pe, 22)
		s, _ := universal.Multiply(pe, c, a, bm, cfg)
		pe.Barrier()
		if pe.Rank() == 0 {
			stat = s
			out = c.Gather(pe, 0)
		}
	})
	return out, stat
}

// runUniversal is runScenario on a fresh world with the default config.
func runUniversal(b rt.Backend, p int, sc scenario) (*tile.Matrix, universal.Stationary) {
	cfg := universal.DefaultConfig()
	cfg.SyncReplicas = true
	return runScenario(b.NewWorld(p), sc, cfg)
}

func maxRelDiff(x, y *tile.Matrix) float64 {
	worst := 0.0
	for i := range x.Data {
		diff := math.Abs(float64(x.Data[i] - y.Data[i]))
		scale := math.Max(math.Abs(float64(x.Data[i])), 1)
		if d := diff / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestUniversalConformanceAcrossBackends runs the same problems on both
// backends — shmem and the timed gpubackend — for both Table 2 systems and
// requires identical results within 1e-4 relative tolerance.
func TestUniversalConformanceAcrossBackends(t *testing.T) {
	systems := []struct {
		name string
		sys  universal.SimSystem
	}{
		{"pvc", universal.PVCSystem()},
		{"h100", universal.H100System()},
		// The same systems with the link-routed fabric installed: the timed
		// backend reserves individual links instead of per-PE ports, and the
		// numeric results must not move at all.
		{"pvc-fabric", universal.PVCFabricSystem()},
		{"h100-fabric", universal.H100FabricSystem()},
		// A 2-node rail-optimized fat-tree: cross-node accumulates take the
		// §3 get+put path on the timed backend, which must stay numerically
		// identical to the shmem reference's atomic accumulates.
		{"h100-fattree", universal.H100FatTreeSystem(2, 8, 1)},
	}
	for _, system := range systems {
		p := system.sys.Topo.NumPE()
		backends := conformanceBackends(system.sys)
		for _, sc := range scenarios(p) {
			t.Run(system.name+"/"+sc.name, func(t *testing.T) {
				want, _ := runUniversal(backends[0], p, sc)
				for _, b := range backends[1:] {
					got, _ := runUniversal(b, p, sc)
					if d := maxRelDiff(want, got); d > 1e-4 {
						t.Fatalf("C differs between %s and %s: max rel diff %g",
							backends[0].Name(), b.Name(), d)
					}
				}
			})
		}
	}
}

// TestGpuBackendObservesQueueAndInterference is the acceptance test for
// the timed backend's stream model: on a workload with deep prefetch and
// remote accumulates (outer-product partitioning on the H100 system, whose
// device models accumulate/GEMM interference), it reports nonzero
// queue-depth and interference delay through runtime.StreamStatsOf.
func TestGpuBackendObservesQueueAndInterference(t *testing.T) {
	sys := universal.H100System()
	p := sys.Topo.NumPE()
	// Column-block A times row-block B: every rank's GEMM results land in
	// remote C tiles, so the run is accumulate-heavy; prefetch depth 4 keeps
	// several async fetches in flight per PE.
	sc := scenario{"outer-product", 128, 128, 128,
		distmat.ColBlock{}, distmat.RowBlock{}, distmat.Block2D{}, 1, 1, 1}

	w := gpubackend.New(sys.Topo, sys.Dev).NewWorld(p)
	cfg := universal.DefaultConfig()
	cfg.PrefetchDepth = 4
	cfg.MaxInflight = 4
	// Stationary A keeps A in place, so every rank pushes its partial C
	// results to their owners — remote accumulates into busy devices.
	cfg.Stationary = universal.StationaryA
	runScenario(w, sc, cfg)
	ss, ok := rt.StreamStatsOf(w)
	if !ok {
		t.Fatal("gpubackend did not report stream stats")
	}
	t.Logf("gpubackend: %d stream ops, queue delay %.3gs, interference %.3gs",
		ss.StreamOps, ss.QueueDelaySeconds, ss.AccumInterferenceSeconds)
	if ss.StreamOps == 0 {
		t.Fatal("gpubackend scheduled no stream ops for a real multiply")
	}
	if ss.QueueDelaySeconds <= 0 {
		t.Fatal("gpubackend observed no queue delay despite prefetch depth 4")
	}
	if ss.AccumInterferenceSeconds <= 0 {
		t.Fatal("gpubackend observed no accumulate/GEMM interference on H100")
	}
}

// TestTimedBackendPredictsRuntimeComparableToCostModel checks the timed
// backend's modeled wall-clock against the §4.3 cost model: both price the
// same plans over the same topology and device, so they must land within a
// small factor of each other (the cost model assumes perfect overlap and no
// port contention; the timed run observes the executor's real schedule).
func TestTimedBackendPredictsRuntimeComparableToCostModel(t *testing.T) {
	sys := universal.PVCSystem()
	p := sys.Topo.NumPE()
	sc := scenarios(p)[0]

	backend := gpubackend.New(sys.Topo, sys.Dev)
	w := backend.NewWorld(p).(*gpubackend.World)
	a := distmat.New(w, sc.m, sc.k, sc.partA, 1)
	b := distmat.New(w, sc.k, sc.n, sc.partB, 1)
	c := distmat.New(w, sc.m, sc.n, sc.partC, 1)
	cfg := universal.DefaultConfig()
	var stat universal.Stationary
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		s, _ := universal.Multiply(pe, c, a, b, cfg)
		if pe.Rank() == 0 {
			stat = s
		}
	})
	// Setup (FillRandom barriers) charges no time, so the whole timeline is
	// the multiply.
	pred := w.PredictedSeconds()
	if pred <= 0 {
		t.Fatal("timed backend predicted no runtime for a real multiply")
	}

	prob := universal.NewProblem(c, a, b)
	est := universal.ProblemCost(prob, stat, sys)
	if est <= 0 {
		t.Fatal("cost model priced the problem at zero")
	}
	ratio := pred / est
	t.Logf("predicted %.3gs, cost model %.3gs (ratio %.2f)", pred, est, ratio)
	if ratio < 0.2 || ratio > 20 {
		t.Fatalf("predicted runtime %g not comparable to cost model %g (ratio %.2f)", pred, est, ratio)
	}
}

// TestTimedBackendCountsSameTrafficAsShmem pins the two backends to
// identical one-sided traffic for an identical run: the timed backend adds
// a clock, never communication.
func TestTimedBackendCountsSameTrafficAsShmem(t *testing.T) {
	sys := universal.H100System()
	p := sys.Topo.NumPE()
	sc := scenarios(p)[1]

	traffic := func(b rt.Backend) rt.Stats {
		w := b.NewWorld(p)
		a := distmat.New(w, sc.m, sc.k, sc.partA, 1)
		bm := distmat.New(w, sc.k, sc.n, sc.partB, 1)
		c := distmat.New(w, sc.m, sc.n, sc.partC, 1)
		cfg := universal.DefaultConfig()
		cfg.PrefetchDepth = 1
		cfg.MaxInflight = 1
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 5)
			bm.FillRandom(pe, 6)
			universal.Multiply(pe, c, a, bm, cfg)
		})
		return w.Stats()
	}

	s1 := traffic(shmem.Backend{})
	s2 := traffic(gpubackend.New(sys.Topo, sys.Dev))
	if s1.RemoteGetBytes != s2.RemoteGetBytes || s1.RemoteAccumBytes != s2.RemoteAccumBytes {
		t.Fatalf("traffic differs: shmem %+v, timed %+v", s1, s2)
	}
}

// TestGemmChargeMatchesGranularDeviceModel pins the executor's ChargeGemm
// path on a device with unit tile granularity: a 1-PE timed world
// multiplying two local tiles must spend exactly the device model's GEMM
// time (plus launch overheads and local accumulates).
func TestGemmChargeMatchesGranularDeviceModel(t *testing.T) {
	topo := simnet.NewUniform(1, 1e9, 1e12, 0, "single")
	dev := gpusim.Device{PeakFlops: 1e12, MemBW: 1e12, AccumBWFactor: 1, GranM: 1, GranN: 1, GranK: 1}
	w := gpubackend.New(topo, dev).NewWorld(1).(*gpubackend.World)
	a := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	b := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	c := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		universal.Multiply(pe, c, a, b, universal.DefaultConfig())
	})
	gemm := dev.GemmTime(32, 32, 32)
	pred := w.PredictedSeconds()
	if pred < gemm {
		t.Fatalf("predicted %g is below the single GEMM's device time %g", pred, gemm)
	}
	// One GEMM plus one local accumulate (2×bytes/MemBW) bounds the run.
	upper := gemm + 2*4*32*32/dev.MemBW + 10*dev.LaunchOverhead
	if pred > upper*1.01 {
		t.Fatalf("predicted %g exceeds modeled work %g", pred, upper)
	}
}

// TestPlanCacheConformanceAcrossBackends: executing from the compiled-plan
// cache must be a pure optimization on every backend — the cached C (both
// the compile-on-miss call and the pure hit re-execution) matches the
// fresh per-rank-rebuild C within the same 1e-4 relative tolerance the
// backend matrix itself is held to, and the hit re-runs zero slicing work.
func TestPlanCacheConformanceAcrossBackends(t *testing.T) {
	sys := universal.PVCSystem()
	p := sys.Topo.NumPE()
	for _, b := range conformanceBackends(sys) {
		for _, sc := range scenarios(p) {
			t.Run(b.Name()+"/"+sc.name, func(t *testing.T) {
				fresh, _ := runUniversal(b, p, sc)

				cfg := universal.DefaultConfig()
				cfg.SyncReplicas = true
				cfg.Plans = universal.NewPlanCache(8)
				w := b.NewWorld(p)
				cold, _ := runScenario(w, sc, cfg) // miss: compiles once
				before := universal.PlanBuildCount()
				warm, _ := runScenario(w, sc, cfg) // hit: zero slicing work
				if n := universal.PlanBuildCount() - before; n != 0 {
					t.Fatalf("cache hit ran %d slicing passes", n)
				}
				st := cfg.Plans.Stats()
				if st.Builds != 1 {
					t.Fatalf("compiled %d times across two runs, want 1", st.Builds)
				}
				if d := maxRelDiff(fresh, cold); d > 1e-4 {
					t.Fatalf("compile-on-miss C differs from fresh: max rel diff %g", d)
				}
				if d := maxRelDiff(fresh, warm); d > 1e-4 {
					t.Fatalf("cache-hit C differs from fresh: max rel diff %g", d)
				}
			})
		}
	}
}
