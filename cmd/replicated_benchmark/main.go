// Command replicated_benchmark mirrors the paper artifact's
// replicated_benchmark binary (task T1): it runs one distributed matrix
// multiplication with an explicit choice of partitionings, replication
// factors, and data movement strategy, and reports timing.
//
// Modes:
//
//	-mode real        execute with real float32 arithmetic on goroutine
//	                  PEs and verify against the serial reference
//	-mode sim         run the discrete-event performance model on the
//	                  selected system preset and report percent of peak
//	-mode repl-sweep  sweep every valid replication factor for the chosen
//	                  partitioning (experiment E10)
//	-mode gantt       render the simulated schedule as an ASCII timeline
//	                  (one row per compute engine / network port)
//	-mode autotune    search partitionings × replication × stationary for
//	                  the problem size and print the leaders (the paper's
//	                  §6 future-work item)
//
// Example:
//
//	replicated_benchmark -mode sim -system pvc -m 1024 -n 49152 -k 12288 \
//	    -part-a col -part-b col -part-c col -stationary C
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"slicing/internal/autotune"
	"slicing/internal/distmat"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/trace"
	"slicing/internal/universal"
)

func main() {
	var (
		mode  = flag.String("mode", "sim", "real | sim | repl-sweep | gantt | autotune")
		sysID = flag.String("system", "pvc", "pvc | h100 (sim modes)")
		m     = flag.Int("m", 1024, "rows of A and C")
		n     = flag.Int("n", 1024, "cols of B and C")
		k     = flag.Int("k", 1024, "cols of A / rows of B")
		p     = flag.Int("p", 0, "PE count (0 = system preset size)")
		partA = flag.String("part-a", "row", "partitioning of A: row | col | block")
		partB = flag.String("part-b", "col", "partitioning of B")
		partC = flag.String("part-c", "block", "partitioning of C")
		cA    = flag.Int("repl-a", 1, "replication factor of A")
		cB    = flag.Int("repl-b", 1, "replication factor of B")
		cC    = flag.Int("repl-c", 1, "replication factor of C")
		stat  = flag.String("stationary", "auto", "auto | A | B | C")
	)
	flag.Parse()

	sys := universal.PVCSystem()
	if *sysID == "h100" {
		sys = universal.H100System()
	}
	pes := *p
	if pes == 0 {
		pes = sys.Topo.NumPE()
	}

	w := shmem.NewWorld(pes)
	a := distmat.New(w, *m, *k, parsePart(*partA), *cA)
	b := distmat.New(w, *k, *n, parsePart(*partB), *cB)
	c := distmat.New(w, *m, *n, parsePart(*partC), *cC)
	prob := universal.NewProblem(c, a, b)
	cfg := universal.DefaultConfig()
	cfg.Stationary = parseStat(*stat)
	cfg.SyncReplicas = true

	switch *mode {
	case "real":
		runReal(w, prob, cfg)
	case "sim":
		if pes != sys.Topo.NumPE() {
			fatalf("sim mode needs -p to match the %s preset (%d PEs)", *sysID, sys.Topo.NumPE())
		}
		res := universal.SimulateMultiply(prob, cfg, sys)
		fmt.Printf("system=%s m=%d n=%d k=%d A=%s(c%d) B=%s(c%d) C=%s(c%d)\n",
			sys.Topo.Name(), *m, *n, *k, *partA, *cA, *partB, *cB, *partC, *cC)
		fmt.Printf("stationary=%v ops=%d makespan=%.6fs percent_of_peak=%.1f%%\n",
			res.Stationary, res.Ops, res.Makespan, res.PercentOfPeak)
		fmt.Printf("remote_get=%.1fMB remote_accum=%.1fMB compute_util=%.2f\n",
			float64(res.RemoteGetBytes)/1e6, float64(res.RemoteAccumBytes)/1e6, res.AvgComputeUtil)
	case "repl-sweep":
		runReplSweep(*m, *n, *k, pes, *partA, *partB, *partC, cfg, sys)
	case "autotune":
		if pes != sys.Topo.NumPE() {
			fatalf("autotune mode needs -p to match the system preset (%d PEs)", sys.Topo.NumPE())
		}
		cands := autotune.Search(sys, *m, *n, *k, autotune.Options{SimulateTop: 5})
		fmt.Printf("%-14s %-6s %-6s %-6s %14s %14s\n", "partitioning", "c_AB", "c_C", "stat", "cost_est", "sim_refined")
		show := 10
		if show > len(cands) {
			show = len(cands)
		}
		for _, c := range cands[:show] {
			sim := "-"
			if c.SimSeconds > 0 {
				sim = fmt.Sprintf("%.6fs", c.SimSeconds)
			}
			fmt.Printf("%-14v %-6d %-6d %-6v %12.6fs %14s\n", c.Part, c.ReplAB, c.ReplC, c.Stationary, c.CostSeconds, sim)
		}
	case "gantt":
		if pes != sys.Topo.NumPE() {
			fatalf("gantt mode needs -p to match the system preset (%d PEs)", sys.Topo.NumPE())
		}
		res, eng, run := universal.SimulateCompiledTrace(prob, universal.CompilePlans(prob, cfg), cfg, sys)
		fmt.Printf("stationary=%v percent_of_peak=%.1f%%\n", res.Stationary, res.PercentOfPeak)
		trace.WriteGantt(os.Stdout, eng, run, 100)
	default:
		fatalf("unknown mode %q", *mode)
	}
}

func runReal(w rt.World, prob universal.Problem, cfg universal.Config) {
	w.Run(func(pe rt.PE) {
		prob.A.FillRandom(pe, 1)
		prob.B.FillRandom(pe, 2)
	})
	var ref *tile.Matrix
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			fa := prob.A.Gather(pe, 0)
			fb := prob.B.Gather(pe, 0)
			ref = tile.New(prob.C.Rows(), prob.C.Cols())
			tile.GemmNaive(ref, fa, fb)
		}
	})
	start := time.Now()
	var stat universal.Stationary
	w.Run(func(pe rt.PE) {
		stat, _ = universal.Multiply(pe, prob.C, prob.A, prob.B, cfg)
	})
	elapsed := time.Since(start)
	var ok bool
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			ok = prob.C.Gather(pe, 0).AllClose(ref, 1e-3)
		}
	})
	fmt.Printf("stationary=%v elapsed=%v verified=%v\n", stat, elapsed, ok)
	if !ok {
		os.Exit(1)
	}
}

func runReplSweep(m, n, k, pes int, pa, pb, pc string, cfg universal.Config, sys universal.SimSystem) {
	if pes != sys.Topo.NumPE() {
		fatalf("repl-sweep needs -p to match the system preset (%d PEs)", sys.Topo.NumPE())
	}
	fmt.Printf("%-6s %-6s %12s %14s %12s\n", "c_AB", "c_C", "makespan", "pct_of_peak", "stationary")
	for cAB := 1; cAB <= pes; cAB++ {
		if pes%cAB != 0 {
			continue
		}
		for cC := 1; cC <= pes; cC++ {
			if pes%cC != 0 {
				continue
			}
			w := shmem.NewWorld(pes)
			a := distmat.New(w, m, k, parsePart(pa), cAB)
			b := distmat.New(w, k, n, parsePart(pb), cAB)
			c := distmat.New(w, m, n, parsePart(pc), cC)
			res := universal.SimulateMultiply(universal.NewProblem(c, a, b), cfg, sys)
			fmt.Printf("%-6d %-6d %10.6fs %13.1f%% %12v\n", cAB, cC, res.Makespan, res.PercentOfPeak, res.Stationary)
		}
	}
}

func parsePart(s string) distmat.Partition {
	switch s {
	case "row":
		return distmat.RowBlock{}
	case "col", "column":
		return distmat.ColBlock{}
	case "block", "2d":
		return distmat.Block2D{}
	default:
		fatalf("unknown partitioning %q (row | col | block)", s)
		return nil
	}
}

func parseStat(s string) universal.Stationary {
	switch s {
	case "auto":
		return universal.StationaryAuto
	case "A", "a":
		return universal.StationaryA
	case "B", "b":
		return universal.StationaryB
	case "C", "c":
		return universal.StationaryC
	default:
		fatalf("unknown stationary %q (auto | A | B | C)", s)
		return universal.StationaryAuto
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replicated_benchmark: "+format+"\n", args...)
	os.Exit(2)
}
