package universal

import (
	"math"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/fabric"
	"slicing/internal/gpusim"
	"slicing/internal/modelworld"
	"slicing/internal/simnet"
)

// modelProblem lays a problem out over a model-only world: no storage is
// allocated, which is the point — the executor under test must never need
// any.
func modelProblem(p, m, n, k int, pa, pb, pc distmat.Partition, cAB, cC int) Problem {
	w := modelworld.NewWorld(p)
	a := distmat.New(w, m, k, pa, cAB)
	b := distmat.New(w, k, n, pb, cAB)
	c := distmat.New(w, m, n, pc, cC)
	return NewProblem(c, a, b)
}

func requireSimResultsEqual(t *testing.T, got, want SimResult) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan: got %v, want %v", got.Makespan, want.Makespan)
	}
	if got.PercentOfPeak != want.PercentOfPeak {
		t.Fatalf("percent of peak: got %v, want %v", got.PercentOfPeak, want.PercentOfPeak)
	}
	if got.RemoteGetBytes != want.RemoteGetBytes || got.RemoteAccumBytes != want.RemoteAccumBytes {
		t.Fatalf("traffic: got (%d,%d), want (%d,%d)",
			got.RemoteGetBytes, got.RemoteAccumBytes, want.RemoteGetBytes, want.RemoteAccumBytes)
	}
	if got.Ops != want.Ops || got.Stationary != want.Stationary {
		t.Fatalf("ops/stationary: got (%d,%v), want (%d,%v)", got.Ops, got.Stationary, want.Ops, want.Stationary)
	}
	if got.AvgComputeUtil != want.AvgComputeUtil {
		t.Fatalf("compute util: got %v, want %v", got.AvgComputeUtil, want.AvgComputeUtil)
	}
}

// On a degenerate fabric (scalar port model re-expressed as links) an
// executor that already replayed the same plan on another system must
// reproduce a fresh executor bit for bit over that plan: Engine.Reset
// leaves nothing of the earlier DAG behind.
func TestModelExecutorMatchesTraceDegenerate(t *testing.T) {
	sys := SimSystem{
		Topo: fabric.Degenerate(simnet.PresetH100()).Topology(),
		Dev:  gpusim.PresetH100Device(),
	}
	prob := modelProblem(8, 1024, 12288, 3072, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1)
	cfg := DefaultConfig()
	cp := CompilePlans(prob, cfg)

	x := NewModelExecutor()
	x.Simulate(prob, cp, cfg, H100System())
	want := NewModelExecutor().Simulate(prob, cp, cfg, sys)
	got := x.Simulate(prob, cp, cfg, sys)
	requireSimResultsEqual(t, got, want)
}

// On a routed fat-tree at 1/16 scale a reused executor must agree with a
// fresh one within 1e-9 relative — and in fact bit for bit, which the
// equality helper pins. Includes a replicated C so the reduce_replicas
// path replays too; the executor carries over from the previous point.
func TestModelExecutorMatchesTraceRoutedFatTree(t *testing.T) {
	sys := H100FatTreeSystem(2, 4, 2.0) // 16 PEs
	x := NewModelExecutor()
	for _, cC := range []int{2, 1, 2} {
		prob := modelProblem(16, 1024, 12288, 3072, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, cC)
		cfg := DefaultConfig()
		cp := CompilePlans(prob, cfg)

		want := NewModelExecutor().Simulate(prob, cp, cfg, sys)
		got := x.Simulate(prob, cp, cfg, sys)

		if rel := math.Abs(got.Makespan-want.Makespan) / want.Makespan; rel > 1e-9 {
			t.Fatalf("cC=%d: relative makespan error %g > 1e-9", cC, rel)
		}
		requireSimResultsEqual(t, got, want)
	}
}

// One executor must serve many sweep points (different topologies, same or
// different plans) and still agree with the one-shot path after resets.
func TestModelExecutorReusedAcrossSystems(t *testing.T) {
	x := NewModelExecutor()
	systems := []SimSystem{
		H100FatTreeSystem(2, 1, 1.0),
		H100FatTreeSystem(2, 4, 2.0),
		H100FatTreeSystem(2, 8, 1.0),
	}
	prob := modelProblem(16, 512, 768, 3072, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1)
	cfg := DefaultConfig()
	cp := CompilePlans(prob, cfg)
	for i, sys := range systems {
		want := SimulateMultiply(prob, cfg, sys)
		got := x.Simulate(prob, cp, cfg, sys)
		requireSimResultsEqual(t, got, want)
		if i > 0 && got.Makespan == 0 {
			t.Fatal("degenerate zero makespan")
		}
	}
}

func TestModelExecutorTopologyMismatchPanics(t *testing.T) {
	prob := modelProblem(16, 512, 768, 3072, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1)
	cfg := DefaultConfig()
	cp := CompilePlans(prob, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("16-PE plan on 32-PE topology should panic")
		}
	}()
	NewModelExecutor().Simulate(prob, cp, cfg, H100FatTreeSystem(4, 4, 2.0))
}

// The sweep-point hot path: after warmup, replaying a compiled plan on a
// routed fat-tree allocates nothing — no tiles (there is no storage at
// all), and no per-replay bookkeeping either.
func TestModelExecutorSimulateZeroAllocs(t *testing.T) {
	sys := H100FatTreeSystem(2, 4, 2.0)
	prob := modelProblem(16, 512, 768, 3072, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1)
	cfg := DefaultConfig()
	cp := CompilePlans(prob, cfg)

	x := NewModelExecutor()
	x.Simulate(prob, cp, cfg, sys)
	x.Simulate(prob, cp, cfg, sys)

	allocs := testing.AllocsPerRun(10, func() {
		x.Simulate(prob, cp, cfg, sys)
	})
	if allocs != 0 {
		t.Fatalf("Simulate allocates %.0f per sweep point, want 0", allocs)
	}
}
