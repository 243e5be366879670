package ir

import (
	"fmt"
	"math/rand"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

func testProblem(p, m, n, k int, pa, pb, pc distmat.Partition, cA, cB, cC int) universal.Problem {
	w := shmem.NewWorld(p)
	a := distmat.New(w, m, k, pa, cA)
	b := distmat.New(w, k, n, pb, cB)
	c := distmat.New(w, m, n, pc, cC)
	return universal.NewProblem(c, a, b)
}

func testSystem(p int) universal.SimSystem {
	return universal.SimSystem{Topo: simnet.NewUniform(p, 100e9, 1000e9, 1e-6, "test"), Dev: gpusim.PresetH100Device()}
}

func TestBuildGraphDeps(t *testing.T) {
	prob := testProblem(4, 32, 32, 32, distmat.RowBlock{}, distmat.RowBlock{}, distmat.RowBlock{}, 1, 1, 1)
	plan := universal.BuildPlan(0, prob, universal.StationaryC, 0)
	g := buildGraph(plan)
	if len(g.deps) != len(plan.Steps) {
		t.Fatalf("deps for %d steps, want %d", len(g.deps), len(plan.Steps))
	}
	// Stationary C on row-block everything: A tiles are local (same row
	// band), B tiles are remote except one's own.
	for i, s := range plan.Steps {
		for _, d := range g.deps[i] {
			if d.Mat == 'A' && s.ALocal {
				t.Errorf("step %d lists local A tile as dependency", i)
			}
		}
	}
	// Every remote dep must have a comm descriptor.
	for _, deps := range g.deps {
		for _, d := range deps {
			if _, ok := g.comm[d]; !ok {
				t.Fatalf("no comm descriptor for %v", d)
			}
		}
	}
}

func TestGreedyValidates(t *testing.T) {
	for _, rank := range []int{0, 1, 2, 3} {
		prob := testProblem(4, 48, 48, 48, distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}, 1, 1, 1)
		plan := universal.BuildPlan(rank, prob, universal.StationaryC, 0)
		prog := Greedy(plan, DefaultLimits())
		if err := prog.Validate(); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if got := len(progComputes(prog)); got != len(plan.Steps) {
			t.Fatalf("rank %d: program schedules %d steps, plan has %d", rank, got, len(plan.Steps))
		}
	}
}

func progComputes(p Program) []int {
	var out []int
	for _, op := range p.Ops {
		out = append(out, op.Computes...)
	}
	return out
}

func TestCostGreedyValidates(t *testing.T) {
	prob := testProblem(6, 60, 54, 66, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1)
	sys := testSystem(6)
	for rank := 0; rank < 6; rank++ {
		plan := universal.BuildPlan(rank, prob, universal.StationaryB, 0)
		prog := CostGreedy(sys, plan, DefaultLimits())
		if err := prog.Validate(); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestExhaustiveValidatesAndBeatsOrEqualsGreedy(t *testing.T) {
	// Small problem so the plan has <= ExhaustiveLimit steps.
	prob := testProblem(4, 16, 16, 16, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1)
	sys := testSystem(4)
	for rank := 0; rank < 4; rank++ {
		plan := universal.BuildPlan(rank, prob, universal.StationaryC, 0)
		if len(plan.Steps) > ExhaustiveLimit {
			t.Fatalf("test problem too large for exhaustive: %d steps", len(plan.Steps))
		}
		ex := Exhaustive(sys, plan, DefaultLimits())
		if err := ex.Validate(); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		gr := Greedy(plan, DefaultLimits())
		if Cost(sys, ex) > Cost(sys, gr)+1e-12 {
			t.Fatalf("rank %d: exhaustive cost %g worse than greedy %g",
				rank, Cost(sys, ex), Cost(sys, gr))
		}
	}
}

func TestExhaustiveFallsBackOnLargePlans(t *testing.T) {
	prob := testProblem(4, 128, 128, 128, distmat.Custom{TileRows: 16, TileCols: 16, ProcRows: 2, ProcCols: 2},
		distmat.Custom{TileRows: 16, TileCols: 16, ProcRows: 2, ProcCols: 2}, distmat.Block2D{}, 1, 1, 1)
	sys := testSystem(4)
	plan := universal.BuildPlan(0, prob, universal.StationaryC, 0)
	if len(plan.Steps) <= ExhaustiveLimit {
		t.Skip("plan unexpectedly small")
	}
	prog := Exhaustive(sys, plan, DefaultLimits()) // must not hang
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostPositiveAndMonotoneInLimits(t *testing.T) {
	prob := testProblem(4, 64, 64, 64, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1)
	sys := testSystem(4)
	plan := universal.BuildPlan(0, prob, universal.StationaryC, 0)
	tight := Greedy(plan, Limits{MaxCompute: 1, MaxComm: 1})
	loose := Greedy(plan, Limits{MaxCompute: 8, MaxComm: 8})
	if Cost(sys, tight) <= 0 {
		t.Fatal("cost must be positive")
	}
	if err := tight.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := loose.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: for random partitionings, every generator yields a valid
// program scheduling all steps.
func TestGeneratorsValidOnRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sys := testSystem(4)
	for trial := 0; trial < 25; trial++ {
		parts := []distmat.Partition{distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{},
			distmat.Custom{TileRows: 1 + rng.Intn(12), TileCols: 1 + rng.Intn(12), ProcRows: 2, ProcCols: 2}}
		prob := testProblem(4, 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30),
			parts[rng.Intn(len(parts))], parts[rng.Intn(len(parts))], parts[rng.Intn(len(parts))], 1, 1, 1)
		stat := []universal.Stationary{universal.StationaryA, universal.StationaryB, universal.StationaryC}[rng.Intn(3)]
		for rank := 0; rank < 4; rank++ {
			plan := universal.BuildPlan(rank, prob, stat, 0)
			for name, prog := range map[string]Program{
				"greedy":      Greedy(plan, DefaultLimits()),
				"cost-greedy": CostGreedy(sys, plan, DefaultLimits()),
			} {
				if err := prog.Validate(); err != nil {
					t.Fatalf("trial %d rank %d %s: %v", trial, rank, name, err)
				}
				if got := len(progComputes(prog)); got != len(plan.Steps) {
					t.Fatalf("trial %d rank %d %s: scheduled %d of %d steps",
						trial, rank, name, got, len(plan.Steps))
				}
			}
		}
	}
}

// A lowered program is an ordinary CompiledPlan: compiled through
// ir.Compile and run by the one executor it must match the serial
// reference, for all three generators, on a misaligned problem with a
// replicated C.
func TestCompiledProgramsExecuteCorrect(t *testing.T) {
	const p, m, n, k = 4, 22, 26, 18
	sys := testSystem(p)
	gens := map[string]func(universal.Plan) Program{
		"greedy":      func(pl universal.Plan) Program { return Greedy(pl, DefaultLimits()) },
		"cost-greedy": func(pl universal.Plan) Program { return CostGreedy(sys, pl, DefaultLimits()) },
		"exhaustive":  func(pl universal.Plan) Program { return Exhaustive(sys, pl, DefaultLimits()) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			w := shmem.NewWorld(p)
			a := distmat.New(w, m, k, distmat.Custom{TileRows: 5, TileCols: 7, ProcRows: 2, ProcCols: 2}, 1)
			b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
			c := distmat.New(w, m, n, distmat.Block2D{}, 2)
			prob := universal.NewProblem(c, a, b)
			cfg := universal.DefaultConfig()
			cfg.SyncReplicas = true
			cp := Compile(prob, cfg, gen)
			direct := universal.CompilePlans(prob, cfg)
			if cp.Steps() != direct.Steps() || !cp.Matches(prob, cfg) {
				t.Fatalf("lowered plan has %d steps (direct %d), matches=%v", cp.Steps(), direct.Steps(), cp.Matches(prob, cfg))
			}
			var ref, got *tile.Matrix
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 7)
				b.FillRandom(pe, 8)
				c.Zero(pe)
				err := universal.Execute(pe, []universal.Problem{prob}, []*universal.CompiledPlan{cp}, cfg)
				universal.Finish(pe, []universal.Problem{prob}, cfg)
				if err != nil {
					t.Errorf("rank %d: %v", pe.Rank(), err)
				}
				pe.Barrier()
				if pe.Rank() == 0 {
					ref = tile.New(m, n)
					tile.GemmNaive(ref, a.Gather(pe, 0), b.Gather(pe, 0))
					got = c.Gather(pe, 0)
				}
			})
			if !got.AllClose(ref, 1e-3) {
				t.Fatalf("%s: result mismatch, maxdiff %g", name, got.MaxAbsDiff(ref))
			}
		})
	}
}

// E8 (schedule ablation): after the §4.2 optimizations, direct execution
// should be within a modest factor of the best lowered schedule — the
// paper's conclusion that direct execution is "almost always as efficient
// as the optimal schedule". Direct and lowered are two op orders of one
// plan, priced by the one model replayer.
func TestDirectCompetitiveWithLoweredSchedules(t *testing.T) {
	prob := testProblem(8, 2048, 2048, 2048,
		distmat.Custom{TileRows: 300, TileCols: 700, ProcRows: 2, ProcCols: 4}, // misaligned
		distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1)
	sys := universal.H100System()
	cfg := universal.DefaultConfig()
	cfg.Stationary = universal.StationaryC
	x := universal.NewModelExecutor()
	direct := x.Simulate(prob, universal.CompilePlans(prob, cfg), cfg, sys)
	greedy := x.Simulate(prob, Compile(prob, cfg, func(pl universal.Plan) Program { return Greedy(pl, DefaultLimits()) }), cfg, sys)
	costG := x.Simulate(prob, Compile(prob, cfg, func(pl universal.Plan) Program { return CostGreedy(sys, pl, DefaultLimits()) }), cfg, sys)

	best := greedy.Makespan
	if costG.Makespan < best {
		best = costG.Makespan
	}
	if direct.Makespan > 1.5*best {
		t.Fatalf("direct execution (%.4gs) far worse than best lowered schedule (%.4gs)",
			direct.Makespan, best)
	}
	fmt.Printf("E8 ablation: direct=%.4gs greedy=%.4gs cost-greedy=%.4gs\n",
		direct.Makespan, greedy.Makespan, costG.Makespan)
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	prob := testProblem(4, 32, 32, 32, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}, 1, 1, 1)
	plan := universal.BuildPlan(0, prob, universal.StationaryC, 0)
	good := Greedy(plan, DefaultLimits())

	// Duplicate a compute.
	dup := good
	dup.Ops = append([]IROp(nil), good.Ops...)
	dup.Ops = append(dup.Ops, IROp{Computes: []int{0}})
	if dup.Validate() == nil {
		t.Fatal("duplicate compute not caught")
	}

	// Run a compute before its fetch.
	var remoteStep = -1
	for i, s := range plan.Steps {
		if !s.ALocal || !s.BLocal {
			remoteStep = i
			break
		}
	}
	if remoteStep >= 0 {
		bad := Program{PE: 0, Plan: plan, Ops: []IROp{{Computes: []int{remoteStep}}}}
		if bad.Validate() == nil {
			t.Fatal("unsatisfied dependency not caught")
		}
	}
}
