package universal

// PR 5 estimator tests: the heap scheduler must stay pinned to the legacy
// list scheduler across the conformance systems, the fabric-aware plan
// replay must collapse to the scalar port model on a degenerate fabric
// (within 1e-9), reproduce the incast regime the scalar estimator cannot
// see, and re-running a built simulation must be allocation-free.

import (
	"math"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/fabric"
	"slicing/internal/gpusim"
	"slicing/internal/simnet"
)

// estimatorSystems mirrors the 5-system backend conformance suite
// (internal/gpubackend/conformance_test.go): the two scalar Table 2 nodes,
// their link-routed fabric forms, and a 2-node rail-optimized fat-tree.
func estimatorSystems() []struct {
	name string
	sys  SimSystem
} {
	return []struct {
		name string
		sys  SimSystem
	}{
		{"pvc", PVCSystem()},
		{"h100", H100System()},
		{"pvc-fabric", PVCFabricSystem()},
		{"h100-fabric", H100FabricSystem()},
		{"h100-fattree", H100FatTreeSystem(2, 8, 1)},
	}
}

// estimatorProblems builds the scenarios each system's equivalence check
// replays: an aligned 2D problem, a misaligned one, and a replicated-C one
// (which exercises the reduce_replicas ops, including the §3 get+put pairs
// on the fat-tree).
func estimatorProblems(p int) []Problem {
	pr, pc := distmat.NearSquareFactors(p)
	return []Problem{
		simProblem(p, 96, 80, 64, distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}, 1, 1, 1),
		simProblem(p, 90, 70, 50, distmat.RowBlock{}, distmat.ColBlock{},
			distmat.Custom{TileRows: 13, TileCols: 11, ProcRows: pr, ProcCols: pc}, 1, 1, 1),
		simProblem(p, 64, 64, 96, distmat.RowBlock{}, distmat.RowBlock{}, distmat.RowBlock{}, 1, 1, 2),
	}
}

// TestSchedulerEquivalenceAcrossConformanceSystems pins the indexed-heap
// scheduler to the legacy list scheduler on every estimator DAG the
// 5-system suite generates: identical makespans and per-op timings,
// program-order tie-breaks included. Exact float comparison is
// intentional — both schedulers fold the same numbers in the same order.
func TestSchedulerEquivalenceAcrossConformanceSystems(t *testing.T) {
	for _, system := range estimatorSystems() {
		p := system.sys.Topo.NumPE()
		for pi, prob := range estimatorProblems(p) {
			cfg := DefaultConfig()
			_, eng, run := SimulateCompiledTrace(prob, CompilePlans(prob, cfg), cfg, system.sys)
			oracle := eng.RunListOracle()
			if oracle.Makespan != run.Makespan {
				t.Fatalf("%s/problem%d: oracle makespan %g, heap %g",
					system.name, pi, oracle.Makespan, run.Makespan)
			}
			for i := range oracle.Timings {
				w, g := oracle.Timings[i], run.Timings[i]
				if w.Start != g.Start || w.End != g.End {
					t.Fatalf("%s/problem%d op %d (%s): oracle [%g,%g], heap [%g,%g]",
						system.name, pi, i, w.Label, w.Start, w.End, g.Start, g.End)
				}
			}
		}
	}
}

// TestFabricEstimatorDegeneratePin: replaying plans over fabric.Degenerate
// (every PE pair as a dedicated egress→pair→ingress link route) must
// reproduce the scalar port model's makespan within 1e-9, on single-node
// topologies and — with the §3 round-trip pricing now shared by both
// paths — on a multi-node cluster too.
func TestFabricEstimatorDegeneratePin(t *testing.T) {
	cases := []struct {
		name string
		topo simnet.Topology
		dev  gpusim.Device
	}{
		{"h100", simnet.PresetH100(), gpusim.PresetH100Device()},
		{"pvc", simnet.PresetPVC(), gpusim.PresetPVCDevice()},
		{"h100-cluster", simnet.PresetH100Cluster(2), gpusim.PresetH100Device()},
	}
	for _, tc := range cases {
		p := tc.topo.NumPE()
		for pi, mk := range []func() Problem{
			func() Problem {
				return simProblem(p, 96, 80, 64, distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}, 1, 1, 1)
			},
			func() Problem {
				return simProblem(p, 64, 64, 96, distmat.RowBlock{}, distmat.RowBlock{}, distmat.RowBlock{}, 1, 1, 2)
			},
		} {
			scalar := SimulateMultiply(mk(), DefaultConfig(), SimSystem{Topo: tc.topo, Dev: tc.dev})
			degen := SimulateMultiply(mk(), DefaultConfig(),
				SimSystem{Topo: fabric.Degenerate(tc.topo).Topology(), Dev: tc.dev})
			if d := math.Abs(scalar.Makespan - degen.Makespan); d > 1e-9 {
				t.Fatalf("%s/problem%d: degenerate fabric diverges from scalar ports by %g (scalar %g, degenerate %g)",
					tc.name, pi, d, scalar.Makespan, degen.Makespan)
			}
		}
	}
}

// incastReduceProblem is the estimator-level single-NIC incast storm: C is
// replicated once per node of a fat-tree cluster, so reduce_replicas sends
// every non-origin rank's C share into node 0's GPUs. On the scalar
// cluster topology those flows have distinct endpoint pairs and mostly run
// in parallel; on a single-NIC fat-tree they all squeeze through node 0's
// one NIC downlink.
func incastReduceProblem(p, nodes int) Problem {
	return simProblem(p, 4096, 4096, 64,
		distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}, 1, 1, nodes)
}

// TestFabricEstimatorSeesIncast: the fabric-aware estimator must price the
// single-NIC reduce storm at least 2× the scalar estimator's number for
// the same problem — the regime PR 4's timed backends expose and the
// plan-replay estimator previously could not see.
func TestFabricEstimatorSeesIncast(t *testing.T) {
	const nodes = 3
	p := nodes * 8
	cfg := DefaultConfig()
	cfg.Stationary = StationaryC
	fab := SimulateMultiply(incastReduceProblem(p, nodes), cfg, H100FatTreeSystem(nodes, 1, 1))
	scalar := SimulateMultiply(incastReduceProblem(p, nodes), cfg,
		SimSystem{Topo: simnet.PresetH100Cluster(nodes), Dev: gpusim.PresetH100Device()})
	if fab.Makespan < 2*scalar.Makespan {
		t.Fatalf("fabric estimator %.6g should price the single-NIC storm >= 2x the scalar estimator's %.6g (got %.2fx)",
			fab.Makespan, scalar.Makespan, fab.Makespan/scalar.Makespan)
	}
}

// TestSimulateRunReuseAllocFree: re-running the built simulation of a
// multiply (the steady state of sweep loops that re-Run a DAG) must not
// allocate — the engine's run scratch is reused in place.
func TestSimulateRunReuseAllocFree(t *testing.T) {
	prob := simProblem(8, 512, 512, 512, distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}, 1, 1, 1)
	cfg := DefaultConfig()
	_, eng, _ := SimulateCompiledTrace(prob, CompilePlans(prob, cfg), cfg, H100System())
	if allocs := testing.AllocsPerRun(10, func() { eng.Run() }); allocs != 0 {
		t.Fatalf("steady-state re-Run of a built simulation allocates %.1f times, want 0", allocs)
	}
}

// TestSimulateParallelPlansDeterministic: plans are built on a worker pool
// now; the assembled schedule must not depend on completion order.
func TestSimulateParallelPlansDeterministic(t *testing.T) {
	sys := H100FatTreeSystem(2, 8, 1)
	mk := func() Problem {
		return simProblem(16, 1024, 768, 512, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 2, 2, 1)
	}
	r1 := SimulateMultiply(mk(), DefaultConfig(), sys)
	for i := 0; i < 5; i++ {
		r2 := SimulateMultiply(mk(), DefaultConfig(), sys)
		if r1.Makespan != r2.Makespan || r1.RemoteGetBytes != r2.RemoteGetBytes {
			t.Fatalf("parallel plan building is nondeterministic: %+v vs %+v", r1, r2)
		}
	}
}
