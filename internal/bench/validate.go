package bench

import (
	"fmt"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
	"slicing/internal/universal"
)

// ValidationPoint pairs the plan-replay estimate of one figure
// configuration with a timed-execution measurement of the same
// configuration, run at a reduced scale (real arithmetic at full MLP
// dimensions is prohibitive on a development machine). The two numbers
// answer the question the figures beg: how far is the estimator from what
// the executor actually does?
//
// Both percentages are percent-of-peak at the validation scale, so they
// are directly comparable; their difference (Err) is the error annotated
// onto the full-scale estimator curve.
type ValidationPoint struct {
	Series string // "UA - <partitioning>"
	Batch  int    // the figure point's batch (full scale)
	Scale  int    // dimensions were divided by this factor for validation
	// EstimatorPct is universal.SimulateMultiply's plan-replay estimate.
	EstimatorPct float64
	// TimedPct is the real execution timed by the timed backend.
	TimedPct float64
	// Err is the signed estimator error, TimedPct − EstimatorPct, in
	// percent-of-peak points: near zero means the estimator curve is
	// trustworthy at that point.
	Err float64
}

func (v ValidationPoint) String() string {
	return fmt.Sprintf("%s @%d (1/%d scale): est %.1f%%, timed %.1f%% (%+.1f)",
		v.Series, v.Batch, v.Scale, v.EstimatorPct, v.TimedPct, v.Err)
}

// ValidatePoint runs one figure point's configuration — partitioning,
// replication factors, stationary strategy — through the estimator and
// the timed backend at dimensions divided by scale, and returns the two
// percent-of-peak numbers. The MLP dimensions are multiples of 16, so
// scale 16 keeps every dimension whole while shrinking the arithmetic by
// 4096×.
func ValidatePoint(sys universal.SimSystem, layer Layer, pk Partitioning, pt Point, scale int) ValidationPoint {
	if scale <= 0 {
		scale = 16
	}
	m, n, k := layer.Dims(pt.Batch)
	m, n, k = m/scale, n/scale, k/scale
	v := ValidationPoint{Series: "UA - " + pk.String(), Batch: pt.Batch, Scale: scale}
	stat := pt.Stationary

	v.EstimatorPct = RunUA(sys, m, n, k, pk, pt.ReplAB, pt.ReplC, stat).PercentOfPeak
	cfg := universal.DefaultConfig()
	cfg.Stationary = stat
	v.TimedPct = RunUATimed(sys, m, n, k, pk, pt.ReplAB, pt.ReplC, cfg).PercentOfPeak
	v.Err = v.TimedPct - v.EstimatorPct
	return v
}

// ValidateFigure produces one validation point per UA series of a figure,
// at the largest batch each series was swept over.
func ValidateFigure(sys universal.SimSystem, fig Figure, scale int) []ValidationPoint {
	var out []ValidationPoint
	for _, pk := range UAPartitionings {
		s := fig.ByName("UA - " + pk.String())
		if len(s.Points) == 0 {
			continue
		}
		out = append(out, ValidatePoint(sys, fig.Layer, pk, s.Points[len(s.Points)-1], scale))
	}
	return out
}

// EstimatorIncast prices the reduce-replicas incast storm through the
// plan-replay estimator twice: over the single-NIC fat-tree fabric, where
// every flow into node 0 squeezes through one NIC downlink, and over the
// scalar cluster topology, where the same flows have distinct endpoint
// pairs and the port model runs them (mostly) in parallel. C is
// replicated once per node, so reduce_replicas concentrates every
// non-origin rank's C share onto node 0's GPUs — the estimator-level
// analogue of IncastStorm.
//
// The returned ratio (fabric/scalar) is the incast slowdown only the
// fabric-aware estimator can see; the scalar estimator provably prices the
// storm near-parallel. Both estimates use identical per-transfer costs (the
// fat-tree's uncontended route numbers match the scalar cluster's), so the
// ratio isolates contention structure.
func EstimatorIncast(nodes int) (fabricSec, scalarSec float64) {
	const m, n, k = 4096, 4096, 64 // tiny K: the reduce storm dominates
	cfg := universal.DefaultConfig()
	cfg.Stationary = universal.StationaryC
	mk := func(p int) universal.Problem {
		w := shmem.NewWorld(p)
		a := distmat.New(w, m, k, distmat.Block2D{}, 1)
		b := distmat.New(w, k, n, distmat.Block2D{}, 1)
		c := distmat.New(w, m, n, distmat.Block2D{}, nodes)
		return universal.NewProblem(c, a, b)
	}
	p := nodes * 8
	fab := universal.H100FatTreeSystem(nodes, 1, 1)
	fabricSec = universal.SimulateMultiply(mk(p), cfg, fab).Makespan
	scalar := universal.SimSystem{Topo: simnet.PresetH100Cluster(nodes), Dev: fab.Dev}
	scalarSec = universal.SimulateMultiply(mk(p), cfg, scalar).Makespan
	return fabricSec, scalarSec
}

// FatTree64SchedulerDAG builds the PR 5 scheduler-throughput DAG: a 64-PE
// rail-optimized fat-tree estimate with fine tiles and per-node C
// replication, so the engine schedules ~10^5 ops over per-link fabric
// resources and the reduce_replicas storm floods the ready set with
// thousands of simultaneously-eligible cross-node round trips — the
// cluster-sweep shape whose O(ready) rescans made the seed list scheduler
// quadratic. The single definition is shared by BenchmarkSimulateFatTree64
// and its list-oracle baseline, so the two always schedule the same DAG.
func FatTree64SchedulerDAG() (*gpusim.Engine, universal.SimResult) {
	sys := universal.H100FatTreeSystem(8, 8, 2)
	w := shmem.NewWorld(64)
	part := distmat.Custom{TileRows: 64, TileCols: 64, ProcRows: 8, ProcCols: 8}
	a := distmat.New(w, 2048, 2048, part, 1)
	b := distmat.New(w, 2048, 2048, part, 1)
	// One C replica per node: 8 replicas over 8-slot grids.
	cpart := distmat.Custom{TileRows: 64, TileCols: 64, ProcRows: 4, ProcCols: 2}
	c := distmat.New(w, 2048, 2048, cpart, 8)
	cfg := universal.DefaultConfig()
	cfg.Stationary = universal.StationaryC
	prob := universal.NewProblem(c, a, b)
	res, eng, _ := universal.SimulateCompiledTrace(prob, universal.CompilePlans(prob, cfg), cfg, sys)
	return eng, res
}

// TimedIncastReduce executes the same reduce-storm configuration for real
// on the timed backend over sys, so tests can check that the
// fabric-aware estimator lands in the timed backend's regime exactly where
// the scalar estimator diverges. Real arithmetic: call with the smallest
// cluster that exhibits the storm.
func TimedIncastReduce(sys universal.SimSystem, nodes int) universal.SimResult {
	const m, n, k = 4096, 4096, 64
	cfg := universal.DefaultConfig()
	cfg.Stationary = universal.StationaryC
	return RunUATimed(sys, m, n, k, PartBlock, 1, nodes, cfg)
}
