// Benchmarks regenerating the paper's evaluation. One benchmark per
// table/figure (see DESIGN.md's experiment index):
//
//	E2  BenchmarkTable2Systems        Table 2 system models
//	E4  BenchmarkFigure2MLP1          Figure 2 left  (PVC, MLP-1)
//	E5  BenchmarkFigure2MLP2          Figure 2 right (PVC, MLP-2)
//	E6  BenchmarkFigure3MLP1          Figure 3 left  (H100, MLP-1, +COSMA)
//	E7  BenchmarkFigure3MLP2          Figure 3 right (H100, MLP-2, +COSMA)
//	E8  BenchmarkScheduleAblation     compiler order vs generated order
//	E9  BenchmarkAccumulateVsGet      accumulate ~0.8x of get bandwidth
//	E10 BenchmarkReplicationSweep     the §2.1 replication sliding scale
//
// Each figure benchmark reports the headline percent-of-peak values as
// custom metrics, so `go test -bench=.` prints the series the paper plots.
package slicing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"slicing"
	"slicing/internal/bench"
	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// quickOpts keeps per-iteration sweep cost manageable while preserving the
// figures' qualitative shape. Run cmd/mlp_experiments for the full sweep.
func quickOpts() bench.Options {
	return bench.Options{
		Replications: []int{1, 2, 4},
		Batches:      []int{1024, 8192},
	}
}

func benchFigure(b *testing.B, sys universal.SimSystem, layer bench.Layer, withCOSMA bool) {
	b.ReportAllocs()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = bench.RunFigure(sys, layer, withCOSMA, quickOpts())
	}
	last := len(fig.Series[0].Points) - 1
	for _, s := range fig.Series {
		b.ReportMetric(s.Points[last].PercentOfPeak, pctMetric(s.Name))
	}
	// Absolute units for the figure's headline configuration: modeled
	// aggregate GFLOP/s and one-sided traffic MB/s.
	thr := bench.PointThroughput(layer, fig.BestUAPoint())
	b.ReportMetric(thr.GFlops, "model_GFLOPs")
	b.ReportMetric(thr.MBs, "model_MB/s")
}

func pctMetric(series string) string {
	out := make([]rune, 0, len(series))
	for _, r := range series {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return "pct_" + string(out)
}

// E2: Table 2 — the system models themselves (topology + device lookups).
func BenchmarkTable2Systems(b *testing.B) {
	b.ReportAllocs()
	pvc := universal.PVCSystem()
	h100 := universal.H100System()
	b.ReportMetric(pvc.Dev.PeakFlops/1e12, "PVC_TFLOPs")
	b.ReportMetric(h100.Dev.PeakFlops/1e12, "H100_TFLOPs")
	b.ReportMetric(pvc.Topo.Bandwidth(0, 4)/1e9, "PVC_link_GBs")
	b.ReportMetric(h100.Topo.Bandwidth(0, 1)/1e9, "H100_link_GBs")
	for i := 0; i < b.N; i++ {
		_ = pvc.Dev.GemmTime(4096, 4096, 4096)
		_ = pvc.Topo.Bandwidth(0, i%12)
	}
}

// E4: Figure 2 left — 12xPVC, MLP-1.
func BenchmarkFigure2MLP1(b *testing.B) { benchFigure(b, universal.PVCSystem(), bench.MLP1, false) }

// E5: Figure 2 right — 12xPVC, MLP-2.
func BenchmarkFigure2MLP2(b *testing.B) { benchFigure(b, universal.PVCSystem(), bench.MLP2, false) }

// E6: Figure 3 left — 8xH100, MLP-1, with the COSMA baseline.
func BenchmarkFigure3MLP1(b *testing.B) { benchFigure(b, universal.H100System(), bench.MLP1, true) }

// E7: Figure 3 right — 8xH100, MLP-2, with the COSMA baseline.
func BenchmarkFigure3MLP2(b *testing.B) { benchFigure(b, universal.H100System(), bench.MLP2, true) }

// E8: schedule ablation — §4.3's "executed directly, or reordered": the
// compiler's order (its order pass) against the order the slicing pass
// generated, on a misaligned problem where scheduling has the most room.
// Both are CompiledPlans priced by the one model replayer; one sub-benchmark
// per row (H100 8 PEs, PVC 12 PEs).
func BenchmarkScheduleAblation(b *testing.B) {
	for _, row := range e8Rows {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := row.sys()
			x := slicing.NewModelExecutor()
			var compiler, generated float64
			for i := 0; i < b.N; i++ {
				prob, cfg := e8Problem(row.procRows, row.procCols)
				compiler, generated = e8Makespans(x, sys, prob, cfg)
			}
			b.ReportMetric(compiler*1e3, "compiler_ms")
			b.ReportMetric(generated*1e3, "generated_ms")
		})
	}
}

// E8 as a check: after the §4.2 optimizations the compiler's order should
// be within a modest factor of the generated one — the paper's conclusion
// that direct execution is "almost always as efficient as the optimal
// schedule" — on both rows.
func TestDirectCompetitiveWithLoweredSchedules(t *testing.T) {
	x := slicing.NewModelExecutor()
	for _, row := range e8Rows {
		prob, cfg := e8Problem(row.procRows, row.procCols)
		compiler, generated := e8Makespans(x, row.sys(), prob, cfg)
		if compiler > 1.5*generated {
			t.Errorf("%s: compiler order (%.4gs) far worse than generated order (%.4gs)", row.name, compiler, generated)
		}
		t.Logf("E8 %s: compiler=%.4gs generated=%.4gs", row.name, compiler, generated)
	}
}

// E9: the accumulate kernel achieves a fraction of copy bandwidth. The
// real-execution half measures our PGAS accumulate against get on the same
// volume; the model half reports the 0.8 factor built into the device
// presets (§5.1).
func BenchmarkAccumulateVsGet(b *testing.B) {
	b.ReportAllocs()
	const elems = 1 << 20
	w := shmem.NewWorld(2)
	seg := w.AllocSymmetric(elems)
	buf := make([]float32, elems)
	b.SetBytes(elems * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				pe.Get(buf, seg, 1, 0)
				pe.AccumulateAdd(buf, seg, 1, 0)
			}
		})
	}
	b.StopTimer()
	dev := gpusim.PresetPVCDevice()
	b.ReportMetric(dev.AccumBWFactor, "model_accum_factor")
}

// E10: the replication sliding scale — simulated percent of peak for each
// factor on a fixed MLP-2-style problem (PVC preset).
func BenchmarkReplicationSweep(b *testing.B) {
	b.ReportAllocs()
	sys := universal.PVCSystem()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, c := range []int{1, 2, 3, 4, 6} {
			w := shmem.NewWorld(12)
			a := distmat.New(w, 2048, 49152, distmat.Block2D{}, c)
			bm := distmat.New(w, 49152, 12288, distmat.Block2D{}, c)
			cm := distmat.New(w, 2048, 12288, distmat.Block2D{}, c)
			cfg := universal.DefaultConfig()
			cfg.Stationary = universal.StationaryC
			res := universal.SimulateMultiply(universal.NewProblem(cm, a, bm), cfg, sys)
			if i == 0 {
				b.ReportMetric(res.PercentOfPeak, fmt.Sprintf("pct_c%d", c))
			}
			last = res.PercentOfPeak
		}
	}
	_ = last
}

// Real-execution throughput of the universal algorithm on this machine
// (not a paper figure; a library-quality sanity benchmark).
func BenchmarkUniversalRealExecution(b *testing.B) {
	b.ReportAllocs()
	const p, m, n, k = 4, 256, 256, 256
	w := shmem.NewWorld(p)
	a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
	bm := distmat.New(w, k, n, distmat.ColBlock{}, 1)
	c := distmat.New(w, m, n, distmat.Block2D{}, 1)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		bm.FillRandom(pe, 2)
	})
	cfg := universal.DefaultConfig()
	b.SetBytes(int64(2 * m * n * k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(pe rt.PE) {
			universal.Multiply(pe, c, a, bm, cfg)
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// Steady-state allocation behaviour of the execute loop (PR 3 acceptance:
// ~0 allocs per plan step once pools are warm). One iteration is a full
// distributed Execute over a shared pool; the allocs/step metric divides
// the run's heap allocations by the number of executed plan steps, so
// per-fetch or per-chain allocations would show up as ≥1. On 2 CPUs: 1
// alloc per iteration, this closure, over 512 steps (0.002 allocs/step).
// It was 10 (0.02) while World.Run built its run state per call and each
// PE allocated its feeders, and 72 (0.14) when every call constructed its
// crew.
func BenchmarkExecuteSteadyStateAllocs(b *testing.B) {
	const p, m, n, k = 4, 256, 256, 256
	w := shmem.NewWorld(p)
	// Fine 32×32 tiles give each rank a long plan (hundreds of steps), so
	// the per-call fixed cost (World.Run, the work slice) amortizes away and
	// allocs/step isolates the per-step loop cost.
	part := distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
	a := distmat.New(w, m, k, part, 1)
	bm := distmat.New(w, k, n, part, 1)
	c := distmat.New(w, m, n, part, 1)
	cfg := universal.DefaultConfig()
	cfg.Stationary = universal.StationaryC
	cfg.Pool = gpusim.NewPool()
	prob := universal.NewProblem(c, a, bm)
	probs := []universal.Problem{prob}
	cps := []*universal.CompiledPlan{universal.CompilePlans(prob, cfg)}
	steps := cps[0].Steps()
	exec := func() {
		w.Run(func(pe rt.PE) {
			universal.Execute(pe, probs, cps, cfg, nil)
			pe.Barrier()
		})
	}
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		bm.FillRandom(pe, 2)
	})
	exec() // warm every pool (tile buffers, partials, accumulate scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec()
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(1, exec)
	b.ReportMetric(allocs/float64(steps), "allocs/step")
}

// BenchmarkSimulateFatTree64 measures scheduler throughput (scheduled
// ops/sec) of the indexed-heap engine on the 64-PE fat-tree DAG
// (bench.FatTree64SchedulerDAG) — the PR 5 acceptance metric. The DAG is
// built once; the benchmark times Run alone.
func BenchmarkSimulateFatTree64(b *testing.B) {
	eng, _ := bench.FatTree64SchedulerDAG()
	ops := eng.NumOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
	b.ReportMetric(float64(ops), "dag_ops")
}

// BenchmarkSimulateFatTree64ListOracle is the same DAG through the legacy
// O(ready)-scan list scheduler, kept as the baseline the >=10x acceptance
// ratio is measured against (both schedulers produce identical schedules;
// see TestSchedulerEquivalenceAcrossConformanceSystems).
func BenchmarkSimulateFatTree64ListOracle(b *testing.B) {
	eng, _ := bench.FatTree64SchedulerDAG()
	ops := eng.NumOps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunListOracle()
	}
	b.StopTimer()
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkModelPointStages times the model-replay workload's three
// stages over its 15 MLP-1 points (goldenModelPoint; the points are copied
// from benchmark/model.go): building the fat-tree fabric, laying the
// problem out and compiling it, and replaying the compiled plans on the
// model executor. One iteration is one 15-point cycle of the stage.
func BenchmarkModelPointStages(b *testing.B) {
	type point struct {
		nodes int
		prob  slicing.Problem
		cfg   slicing.Config
		cp    *slicing.CompiledPlan
		sys   slicing.SimSystem
	}
	var pts []point
	for _, nodes := range goldenModelNodes {
		for _, l := range goldenModelLayouts {
			prob, cfg := goldenModelPoint(nodes, l)
			pts = append(pts, point{nodes, prob, cfg, slicing.CompilePlans(prob, cfg), slicing.H100FatTreeSystem(nodes, 8, 2)})
		}
	}
	b.Run("fabric", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pt := range pts {
				slicing.H100FatTreeSystem(pt.nodes, 8, 2)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, nodes := range goldenModelNodes {
				for _, l := range goldenModelLayouts {
					prob, cfg := goldenModelPoint(nodes, l)
					slicing.CompilePlans(prob, cfg)
				}
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		x := slicing.NewModelExecutor()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pt := range pts {
				x.Simulate(pt.prob, pt.cp, pt.cfg, pt.sys)
			}
		}
	})
}

// Fetch-mode ablation (DESIGN.md design choice): whole-tile fetches with
// an LRU cache versus exact sub-tile fetches. Whole tiles over-fetch when
// a replicated stationary C needs only a k-slice of each tile, but they
// amortize across the many ops sharing a tile; sub-tile fetches move the
// minimum per op but forgo reuse. The benchmark reports both sides so the
// crossover is visible (here reuse wins; TestSubTilePlanMovesFewerBytes
// exhibits the opposite regime).
func BenchmarkFetchModeAblation(b *testing.B) {
	b.ReportAllocs()
	sys := universal.PVCSystem()
	mk := func() universal.Problem {
		w := shmem.NewWorld(12)
		a := distmat.New(w, 2048, 49152, distmat.RowBlock{}, 1)
		bm := distmat.New(w, 49152, 12288, distmat.RowBlock{}, 1)
		c := distmat.New(w, 2048, 12288, distmat.Block2D{}, 3)
		return universal.NewProblem(c, a, bm)
	}
	var full, sub universal.SimResult
	for i := 0; i < b.N; i++ {
		cfgFull := universal.DefaultConfig()
		cfgFull.Stationary = universal.StationaryC
		full = universal.SimulateMultiply(mk(), cfgFull, sys)
		cfgSub := cfgFull
		cfgSub.SubTileFetch = true
		sub = universal.SimulateMultiply(mk(), cfgSub, sys)
	}
	b.ReportMetric(full.Makespan*1e3, "fulltile_ms")
	b.ReportMetric(sub.Makespan*1e3, "subtile_ms")
	b.ReportMetric(float64(full.RemoteGetBytes)/1e6, "fulltile_getMB")
	b.ReportMetric(float64(sub.RemoteGetBytes)/1e6, "subtile_getMB")
}

// Sparse-times-dense (the workload of the paper's 1.5D citation [16]):
// a square sparse matrix times a tall-and-skinny dense matrix, run through
// the same universal algorithm with real arithmetic.
func BenchmarkSparseDenseMultiply(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(60))
	const p, m, n, k = 4, 512, 64, 512
	global := tile.RandomCSR(rng, m, k, 0.05)
	w := shmem.NewWorld(p)
	a := distmat.NewSparse(w, global, distmat.RowBlock{}, 1)
	bm := distmat.New(w, k, n, distmat.RowBlock{}, 1)
	c := distmat.New(w, m, n, distmat.RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		bm.FillRandom(pe, 1)
	})
	cfg := universal.DefaultConfig()
	b.SetBytes(int64(2 * global.NNZ() * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(pe rt.PE) {
			universal.MultiplySparse(pe, c, a, bm, cfg)
		})
	}
}

// Strong scaling across H100 cluster sizes (multi-node extension of the
// paper's single-node evaluation).
func BenchmarkStrongScaling(b *testing.B) {
	b.ReportAllocs()
	var pts []bench.ScalingPoint
	for i := 0; i < b.N; i++ {
		pts = bench.StrongScaling(bench.MLP1, 8192, []int{1, 2, 4})
	}
	for _, pt := range pts {
		b.ReportMetric(pt.Speedup, fmt.Sprintf("speedup_%dnodes", pt.Nodes))
		b.ReportMetric(pt.Efficiency*100, fmt.Sprintf("eff_pct_%dnodes", pt.Nodes))
	}
}
