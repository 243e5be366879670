// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 2-3 and the supporting ablations): MLP-1 and MLP-2
// GPT-like problem sizes across batch sizes, the six universal-algorithm
// partitionings (Block, Column, Outer Product, Inner Product, Row,
// Traditional), exhaustive replication-factor sweeps with the best result
// reported per partitioning (replication annotated, paper-style), and the
// DTensor and COSMA comparison series.
package bench

import (
	"fmt"
	"math"

	"slicing/internal/distmat"
	"slicing/internal/gpubackend"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/universal"
)

// Layer selects which MLP matrix multiplication is benchmarked (§5.2.1):
// MLP-1 expands the hidden dimension (m=batch, n=4h, k=h), MLP-2 shrinks
// it back (m=batch, n=h, k=4h).
type Layer int

const (
	MLP1 Layer = iota
	MLP2
)

func (l Layer) String() string {
	if l == MLP1 {
		return "MLP-1"
	}
	return "MLP-2"
}

// Hidden is the paper's hidden dimension h = 12K, with r = 4.
const Hidden = 12288

// Dims returns (m, n, k) for the layer at the given batch size.
func (l Layer) Dims(batch int) (m, n, k int) {
	if l == MLP1 {
		return batch, 4 * Hidden, Hidden
	}
	return batch, Hidden, 4 * Hidden
}

// Batches are the batch sizes of Figures 2-3.
var Batches = []int{1024, 2048, 4096, 8192}

// Partitioning names one of the partitioning families evaluated for the
// universal algorithm ("UA - ..." series in the figures).
type Partitioning int

const (
	// PartBlock is a 2D block distribution for all three matrices.
	PartBlock Partitioning = iota
	// PartColumn is a 1D column block distribution for all three.
	PartColumn
	// PartOuterProd is column-block A times row-block B (outer-product
	// style, Megatron-MLP-second-layer-like); C is 2D blocked.
	PartOuterProd
	// PartInnerProd is row-block A times column-block B (inner-product
	// style, sequence-parallel-like); C is 2D blocked.
	PartInnerProd
	// PartRow is a 1D row block distribution for all three.
	PartRow
	// PartTraditional is the aligned 2D blocked layout classical
	// implementations require (one tile per process, tiles of A, B, C
	// aligned on the same process grid).
	PartTraditional
)

// UAPartitionings lists the six families in figure order.
var UAPartitionings = []Partitioning{PartBlock, PartColumn, PartOuterProd, PartInnerProd, PartRow, PartTraditional}

func (pk Partitioning) String() string {
	switch pk {
	case PartBlock:
		return "Block"
	case PartColumn:
		return "Column"
	case PartOuterProd:
		return "Outer Prod."
	case PartInnerProd:
		return "Inner Prod."
	case PartRow:
		return "Row"
	case PartTraditional:
		return "Traditional"
	}
	return "?"
}

// Parts returns the partition objects for (A, B, C).
func (pk Partitioning) Parts() (pa, pb, pc distmat.Partition) {
	switch pk {
	case PartBlock:
		return distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}
	case PartColumn:
		return distmat.ColBlock{}, distmat.ColBlock{}, distmat.ColBlock{}
	case PartOuterProd:
		return distmat.ColBlock{}, distmat.RowBlock{}, distmat.Block2D{}
	case PartInnerProd:
		return distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}
	case PartRow:
		return distmat.RowBlock{}, distmat.RowBlock{}, distmat.RowBlock{}
	case PartTraditional:
		return distmat.Block2D{}, distmat.Block2D{}, distmat.Block2D{}
	}
	panic("bench: unknown partitioning")
}

// Point is one measured configuration.
type Point struct {
	Batch         int
	PercentOfPeak float64
	// ReplAB and ReplC annotate the winning replication factors, printed
	// above each figure point ("2" or "2-1" style).
	ReplAB, ReplC int
	Stationary    universal.Stationary
	Makespan      float64
	// RemoteMB is the one-sided traffic (gets + accumulates) of the
	// configuration in megabytes, for absolute-throughput reporting.
	RemoteMB float64
}

// ReplLabel formats the replication annotation the way the figures do.
func (pt Point) ReplLabel() string {
	if pt.ReplAB == pt.ReplC {
		return fmt.Sprintf("%d", pt.ReplAB)
	}
	return fmt.Sprintf("%d-%d", pt.ReplAB, pt.ReplC)
}

// Series is one line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is the full data behind one plot.
type Figure struct {
	Title  string
	System string
	Layer  Layer
	Series []Series
}

// Options tunes the sweep.
type Options struct {
	// Replications lists candidate replication factors; nil sweeps every
	// divisor of the PE count.
	Replications []int
	// Stationaries lists strategies to try; nil tries B and C (the two the
	// figures report).
	Stationaries []universal.Stationary
	// Batches overrides the batch sizes; nil uses the paper's four.
	Batches []int
}

func (o Options) withDefaults(p int) Options {
	if o.Replications == nil {
		for c := 1; c <= p; c++ {
			if p%c == 0 {
				o.Replications = append(o.Replications, c)
			}
		}
	}
	if o.Stationaries == nil {
		o.Stationaries = []universal.Stationary{universal.StationaryB, universal.StationaryC}
	}
	if o.Batches == nil {
		o.Batches = Batches
	}
	return o
}

// RunUA simulates one universal-algorithm configuration.
func RunUA(sys universal.SimSystem, m, n, k int, pk Partitioning, cAB, cC int, stat universal.Stationary) universal.SimResult {
	p := sys.Topo.NumPE()
	w := shmem.NewWorld(p)
	pa, pb, pc := pk.Parts()
	a := distmat.New(w, m, k, pa, cAB)
	b := distmat.New(w, k, n, pb, cAB)
	c := distmat.New(w, m, n, pc, cC)
	prob := universal.NewProblem(c, a, b)
	cfg := universal.DefaultConfig()
	cfg.Stationary = stat
	return universal.SimulateMultiply(prob, cfg, sys)
}

// RunUATimed executes one universal-algorithm configuration for real on
// the timed backend built over sys (gpubackend) and reports the modeled
// wall-clock of the execution the runtime actually performed (dynamic
// prefetch, bounded chains, engine and port contention), as opposed to
// RunUA's plan-replay estimate, together with the run's queue-delay and
// interference seconds. cfg is the full execution config, which is what
// lets the autotuner sweep PrefetchDepth/MaxInflight. Real arithmetic
// makes this far more expensive than RunUA, so the figure sweeps use it
// selectively for validation points.
func RunUATimed(sys universal.SimSystem, m, n, k int, pk Partitioning, cAB, cC int, cfg universal.Config) universal.SimResult {
	p := sys.Topo.NumPE()
	w := gpubackend.New(sys.Topo, sys.Dev).NewWorld(p).(*gpubackend.World)
	pa, pb, pc := pk.Parts()
	a := distmat.New(w, m, k, pa, cAB)
	bm := distmat.New(w, k, n, pb, cAB)
	c := distmat.New(w, m, n, pc, cC)
	var resolved universal.Stationary
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		bm.FillRandom(pe, 2)
		s, _ := universal.Multiply(pe, c, a, bm, cfg)
		if pe.Rank() == 0 {
			resolved = s
		}
	})
	stats, ss := w.Stats(), w.StreamStats()
	res := universal.SimResult{
		Makespan:                 w.PredictedSeconds(),
		Stationary:               resolved,
		RemoteGetBytes:           int(stats.RemoteGetBytes),
		RemoteAccumBytes:         int(stats.RemoteAccumBytes),
		QueueDelaySeconds:        ss.QueueDelaySeconds,
		AccumInterferenceSeconds: ss.AccumInterferenceSeconds,
	}
	if res.Makespan > 0 {
		flops := 2 * float64(m) * float64(n) * float64(k)
		res.PercentOfPeak = flops / (float64(p) * sys.Dev.PeakFlops * res.Makespan) * 100
	}
	return res
}

// BestUA sweeps replication factors and stationary strategies for one
// partitioning at one batch size and returns the best point, the paper's
// "for each partitioning strategy, we report the replication factor that
// achieved the highest performance" methodology.
func BestUA(sys universal.SimSystem, layer Layer, batch int, pk Partitioning, opt Options) Point {
	p := sys.Topo.NumPE()
	opt = opt.withDefaults(p)
	m, n, k := layer.Dims(batch)
	best := Point{Batch: batch, PercentOfPeak: -1}
	for _, cAB := range opt.Replications {
		for _, cC := range opt.Replications {
			for _, stat := range opt.Stationaries {
				res := RunUA(sys, m, n, k, pk, cAB, cC, stat)
				// §5.2.1: only partitionings that do not entirely eliminate
				// communication are considered (full input replication would
				// trivially win every sweep).
				if res.RemoteGetBytes+res.RemoteAccumBytes == 0 {
					continue
				}
				if res.PercentOfPeak > best.PercentOfPeak {
					best = Point{
						Batch: batch, PercentOfPeak: res.PercentOfPeak,
						ReplAB: cAB, ReplC: cC,
						Stationary: res.Stationary, Makespan: res.Makespan,
						RemoteMB: float64(res.RemoteGetBytes+res.RemoteAccumBytes) / 1e6,
					}
				}
			}
		}
	}
	return best
}

// UASeries produces one "UA - <partitioning>" line.
func UASeries(sys universal.SimSystem, layer Layer, pk Partitioning, opt Options) Series {
	opt = opt.withDefaults(sys.Topo.NumPE())
	s := Series{Name: "UA - " + pk.String()}
	for _, batch := range opt.Batches {
		s.Points = append(s.Points, BestUA(sys, layer, batch, pk, opt))
	}
	return s
}

// DTensorSeries produces the "DT - Row" and "DT - Column" lines. The paper
// reports DTensor without replication, its fastest configuration.
func DTensorSeries(sys universal.SimSystem, layer Layer, opt Options) []Series {
	opt = opt.withDefaults(sys.Topo.NumPE())
	row := Series{Name: "DT - Row"}
	col := Series{Name: "DT - Column"}
	for _, batch := range opt.Batches {
		m, n, k := layer.Dims(batch)
		r := dtensorRow(sys, m, n, k)
		c := dtensorColumn(sys, m, n, k)
		row.Points = append(row.Points, Point{Batch: batch, PercentOfPeak: r.PercentOfPeak, ReplAB: 1, ReplC: 1, Makespan: r.Makespan})
		col.Points = append(col.Points, Point{Batch: batch, PercentOfPeak: c.PercentOfPeak, ReplAB: 1, ReplC: 1, Makespan: c.Makespan})
	}
	return []Series{row, col}
}

// COSMASeries produces the "COSMA-NCCL" line of Figure 3.
func COSMASeries(sys universal.SimSystem, layer Layer, opt Options) Series {
	opt = opt.withDefaults(sys.Topo.NumPE())
	s := Series{Name: "COSMA-NCCL"}
	for _, batch := range opt.Batches {
		m, n, k := layer.Dims(batch)
		_, res := simulateCOSMA(sys, m, n, k)
		s.Points = append(s.Points, Point{Batch: batch, PercentOfPeak: res.PercentOfPeak, ReplAB: 1, ReplC: 1, Makespan: res.Makespan})
	}
	return s
}

// RunFigure regenerates one plot of Figure 2 (PVC) or Figure 3 (H100):
// the six UA partitionings, the two DTensor series, and COSMA on the H100
// system.
func RunFigure(sys universal.SimSystem, layer Layer, withCOSMA bool, opt Options) Figure {
	fig := Figure{
		Title:  fmt.Sprintf("%s, FP32 GEMM, %v H=12K", sys.Topo.Name(), layer),
		System: sys.Topo.Name(),
		Layer:  layer,
	}
	for _, pk := range UAPartitionings {
		fig.Series = append(fig.Series, UASeries(sys, layer, pk, opt))
	}
	fig.Series = append(fig.Series, DTensorSeries(sys, layer, opt)...)
	if withCOSMA {
		fig.Series = append(fig.Series, COSMASeries(sys, layer, opt))
	}
	return fig
}

// Best returns the series' highest point value (for shape assertions).
func (s Series) Best() float64 {
	best := math.Inf(-1)
	for _, pt := range s.Points {
		if pt.PercentOfPeak > best {
			best = pt.PercentOfPeak
		}
	}
	return best
}

// ByName finds a series in the figure; it panics if absent.
func (f Figure) ByName(name string) Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("bench: no series %q in %q", name, f.Title))
}
