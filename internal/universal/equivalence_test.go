package universal

import (
	"fmt"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

// reversedOrder is a CompileOrdered order: every rank runs its ops back to
// front.
func reversedOrder(_ int, pl Plan) []int {
	perm := make([]int, len(pl.Steps))
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	return perm
}

// Every way into the executor is the same pipeline — compile, execute,
// finish — so for one PlanKey they must all compute the same C, move the
// same bytes, and leave the pool balanced; and the estimator, which
// compiles through the same CompilePlans, must predict the same run whether
// it is handed the problem or the compiled plan, exclusions included. A plan
// lowered in another op order (CompileOrdered) is one more entry: the same
// ops, so the same C and the same accumulate traffic, under its own key.
//
// Three layouts. First, misaligned tilings with A and C replicated:
// odd-shaped ops, a replica reduction, and exclusions dealing ops across
// replica groups. It is Stationary C, so its chains are local; adopted ops
// keep their deal order, so none of its remote accumulates chain. Second, a
// Stationary-A layout whose A tiles span five B row tiles over single-tile
// C rows, so consecutive generated ops accumulate into the same — for half
// the working ranks remote — C rectangle. Third, the universality case
// (mm-skew scaled down): A ColBlock at replication 2, B and C misaligned,
// Stationary A, where only the order pass makes same-C ops adjacent. In the
// last two, the accumulate chains the executor, the plan's byte accounting
// and the model must all count the same way, at every chain cap.
func TestEntryPointsEquivalent(t *testing.T) {
	for _, lay := range []entryLayout{
		{"", StationaryAuto, false,
			distmat.Custom{TileRows: 7, TileCols: 11, ProcRows: 2, ProcCols: 2}, 2,
			distmat.ColBlock{},
			distmat.Custom{TileRows: 13, TileCols: 9, ProcRows: 2, ProcCols: 2}, 2},
		{"remote-k-runs/", StationaryA, true,
			distmat.Custom{TileRows: 25, TileCols: 22, ProcRows: 2, ProcCols: 4}, 1,
			distmat.Custom{TileRows: 5, TileCols: 46, ProcRows: 8, ProcCols: 1},
			distmat.Custom{TileRows: 25, TileCols: 46, ProcRows: 2, ProcCols: 4}, 1},
		{"skew/", StationaryA, true,
			distmat.ColBlock{}, 2,
			distmat.Custom{TileRows: 8, TileCols: 7, ProcRows: 2, ProcCols: 4},
			distmat.Custom{TileRows: 6, TileCols: 9, ProcRows: 2, ProcCols: 4}, 1},
	} {
		testEntryPointsEquivalent(t, lay)
	}
}

type entryLayout struct {
	prefix string // of the layout's subtest names
	stat   Stationary
	// chains marks a layout whose plans chain remote accumulates whenever
	// the cap allows it.
	chains bool
	partA  distmat.Partition
	replA  int
	partB  distmat.Partition
	partC  distmat.Partition
	replC  int
}

func testEntryPointsEquivalent(t *testing.T, lay entryLayout) {
	const p, m, n, k = 8, 50, 46, 44
	sys := H100System() // 8 PEs
	w := shmem.NewWorld(p)
	a := distmat.New(w, m, k, lay.partA, lay.replA)
	b := distmat.New(w, k, n, lay.partB, 1)
	cs := make([]*distmat.Matrix, 3) // cs[0] serves the single-multiply entries
	probs := make([]Problem, len(cs))
	for i := range cs {
		cs[i] = distmat.New(w, m, n, lay.partC, lay.replC)
		probs[i] = NewProblem(cs[i], a, b)
	}
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 31)
		b.FillRandom(pe, 32)
	})
	want := referenceProduct(m, n, k, 31, 32, a, b, w)

	type entry struct {
		name  string
		fused int // result matrices written per run
		run   func(pe rt.PE, cfg Config) error
		// reordered marks an entry that runs the ops in another order: its
		// whole-tile gets follow its own tile-LRU walk, so they are compared
		// with the model's replay of the same plan instead of with the other
		// entries.
		reordered bool
	}
	entries := []entry{
		{"Multiply/cached", 1, func(pe rt.PE, cfg Config) error {
			cfg.Plans = NewPlanCache(4)
			_, err := Multiply(pe, cs[0], a, b, cfg)
			return err
		}, false},
		{"Multiply/uncached", 1, func(pe rt.PE, cfg Config) error {
			_, err := Multiply(pe, cs[0], a, b, cfg)
			return err
		}, false},
		{"Execute/fused3", 3, func(pe rt.PE, cfg Config) error {
			cps := make([]*CompiledPlan, len(probs))
			for i, c := range cs {
				cps[i] = CompilePlans(probs[i], cfg)
				c.Zero(pe)
			}
			err := Execute(pe, probs, cps, cfg, nil)
			Finish(pe, probs, cfg)
			return err
		}, false},
		{"Execute/ordered", 1, func(pe rt.PE, cfg Config) error {
			cp := CompileOrdered(probs[0], cfg, reversedOrder)
			cs[0].Zero(pe)
			err := Execute(pe, probs[:1], []*CompiledPlan{cp}, cfg, nil)
			Finish(pe, probs[:1], cfg)
			return err
		}, true},
	}

	for _, mode := range []struct {
		name       string
		subTile    bool
		cacheTiles int
	}{{"whole-tile", false, 0}, {"sub-tile", true, 0}, {"cache=1", false, 1}, {"cache=3", false, 3}} {
		for _, exclude := range [][]int{nil, {3}} {
			t.Run(fmt.Sprintf("%s%s/exclude=%v", lay.prefix, mode.name, exclude), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Stationary = lay.stat
				cfg.SubTileFetch, cfg.CacheTiles, cfg.Exclude = mode.subTile, mode.cacheTiles, exclude
				cfg.Pool = gpusim.NewPool()

				direct := CompilePlans(probs[0], cfg)
				var getBytes, accumBytes int64
				for ei, e := range entries {
					before := w.Stats()
					w.Run(func(pe rt.PE) {
						if err := e.run(pe, cfg); err != nil {
							t.Errorf("%s rank %d: %v", e.name, pe.Rank(), err)
						}
					})
					after := w.Stats()
					get := (after.RemoteGetBytes - before.RemoteGetBytes) / int64(e.fused)
					accum := (after.RemoteAccumBytes - before.RemoteAccumBytes) / int64(e.fused)
					// Order cannot change what an op's own slices or its
					// accumulate cost; only whole-tile reuse depends on it.
					sameGets := get == getBytes || (e.reordered && !mode.subTile)
					if ei == 0 {
						getBytes, accumBytes = get, accum
					} else if accum != accumBytes || !sameGets {
						t.Errorf("%s moved (%d get, %d accum) bytes per multiply, %s moved (%d, %d)",
							e.name, get, accum, entries[0].name, getBytes, accumBytes)
					}
					if e.reordered {
						cp := CompileOrdered(probs[0], cfg, reversedOrder)
						if cp.Key.Order == 0 || cp.Key == direct.Key || !cp.Matches(probs[0], cfg) {
							t.Errorf("%s key %+v: want a nonzero Order, distinct from the generated-order key, still matching the problem", e.name, cp.Key)
						}
						model := NewModelExecutor().Simulate(probs[0], cp, cfg, sys)
						if int64(model.RemoteGetBytes) != get || int64(model.RemoteAccumBytes) != accum {
							t.Errorf("%s moved (%d get, %d accum) bytes, the model replay of the same plan predicts (%d, %d)",
								e.name, get, accum, model.RemoteGetBytes, model.RemoteAccumBytes)
						}
					}
					if live := cfg.Pool.Stats().Live; live != 0 {
						t.Errorf("%s left %d pool elements live", e.name, live)
					}
					got := make([]*tile.Matrix, e.fused)
					w.Run(func(pe rt.PE) {
						if pe.Rank() == 0 {
							for i := range got {
								got[i] = cs[i].Gather(pe, 0)
							}
						}
					})
					for i, g := range got {
						if !g.AllClose(want, 1e-4) {
							t.Errorf("%s result %d: maxdiff %g vs GemmNaive", e.name, i, g.MaxAbsDiff(want))
						}
					}
				}
				if getBytes == 0 || accumBytes == 0 {
					t.Errorf("problem moved (%d get, %d accum) remote bytes; the traffic comparison is vacuous", getBytes, accumBytes)
				}

				model := NewModelExecutor().Simulate(probs[0], direct, cfg, sys)
				requireSimResultsEqual(t, model, SimulateMultiply(probs[0], cfg, sys))
				if int64(model.RemoteGetBytes) != getBytes || int64(model.RemoteAccumBytes) != accumBytes {
					t.Errorf("executed (%d get, %d accum) bytes, the model predicts (%d, %d)",
						getBytes, accumBytes, model.RemoteGetBytes, model.RemoteAccumBytes)
				}
				// The plan's own accounting: one remote accumulate per chain,
				// which at cap 1 is one per step.
				var planAccum, perStep int64
				chained := false
				for _, pl := range direct.Plans {
					planAccum += int64(pl.RemoteAccumBytes())
					for _, s := range pl.Steps {
						if !s.CLocal {
							perStep += int64(s.AccumBytes)
							chained = chained || s.Chained
						}
					}
				}
				if lay.replC == 1 && planAccum != accumBytes { // a replicated C adds its reduction
					t.Errorf("executed %d remote accumulate bytes, the plans count %d", accumBytes, planAccum)
				}
				if capped := mode.cacheTiles == 1; capped && (chained || planAccum != perStep) {
					t.Errorf("cap 1: plans count %d remote accumulate bytes (chained steps: %v), want one accumulate per step, %d", planAccum, chained, perStep)
				} else if !capped && lay.chains && (!chained || planAccum >= perStep) {
					t.Errorf("plans count %d remote accumulate bytes of %d per-step: no remote accumulate chained, the comparison is vacuous", planAccum, perStep)
				}
			})
		}
	}
}
