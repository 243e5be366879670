// Command mlp_experiments is the analogue of the paper artifact's
// launch_experiments_mlp1.py / launch_experiments_mlp2.py (task T3): it
// sweeps every universal-algorithm partitioning with all replication
// factors and stationary strategies on the selected system, adds the
// DTensor (and, on H100, COSMA) comparison series, and prints the data
// behind Figures 2 and 3 as an aligned table — or, with -plot, renders
// them as an ASCII percent-of-peak-versus-batch chart instead (the
// artifact's plot_mlp1.py / plot_mlp2.py, task T4), one marker per series
// and the legend below.
//
// In table mode, two annotations ground the estimator curves in real
// (timed) execution:
//
//   - validation points: each UA series' winning configuration re-runs at
//     1/scale dimensions through the timed backend, and its signed error
//     against the estimator is printed per series;
//
//   - pipeline tuning: the headline configuration's PrefetchDepth ×
//     MaxInflight grid is swept on the timed backend
//     (autotune.TunePipeline), surfacing how engine contention moves the
//     optimum.
//
//     mlp_experiments -system pvc  -layer mlp1
//     mlp_experiments -system h100 -layer mlp2
//     mlp_experiments -quick           # smaller sweep for smoke testing
//     mlp_experiments -validate=false -tune=false   # estimator table only
//     mlp_experiments -plot -system h100 -layer mlp2  # ASCII figure
package main

import (
	"flag"
	"fmt"
	"os"

	"slicing/internal/autotune"
	"slicing/internal/bench"
	"slicing/internal/trace"
	"slicing/internal/universal"
)

// chartHeight is the -plot chart's height in rows.
const chartHeight = 24

func main() {
	var (
		sysID    = flag.String("system", "pvc", "pvc | h100")
		layer    = flag.String("layer", "mlp1", "mlp1 | mlp2")
		quick    = flag.Bool("quick", false, "restrict the sweep (fewer batches and factors)")
		validate = flag.Bool("validate", true, "annotate UA series with timed-backend validation points")
		tune     = flag.Bool("tune", true, "sweep the headline point's pipeline depth on the timed backend")
		scale    = flag.Int("scale", 16, "divide dimensions by this factor for timed validation runs")
		plot     = flag.Bool("plot", false, "render the figure as an ASCII chart instead of the table")
	)
	flag.Parse()

	var sys universal.SimSystem
	withCOSMA := false
	switch *sysID {
	case "pvc":
		sys = universal.PVCSystem()
	case "h100":
		sys = universal.H100System()
		withCOSMA = true
	default:
		fmt.Fprintf(os.Stderr, "mlp_experiments: unknown system %q\n", *sysID)
		os.Exit(2)
	}

	var l bench.Layer
	switch *layer {
	case "mlp1":
		l = bench.MLP1
	case "mlp2":
		l = bench.MLP2
	default:
		fmt.Fprintf(os.Stderr, "mlp_experiments: unknown layer %q\n", *layer)
		os.Exit(2)
	}

	opt := bench.Options{}
	if *quick {
		opt.Replications = []int{1, 2, 4}
		opt.Batches = []int{1024, 8192}
	}

	fig := bench.RunFigure(sys, l, withCOSMA, opt)
	if *plot {
		trace.WriteFigureChart(os.Stdout, fig, chartHeight)
		return
	}
	trace.WriteFigureTable(os.Stdout, fig)
	sum := trace.Summarize(fig)
	fmt.Printf("\nheadline: %s = %.1f%% vs %s = %.1f%% (UA competitive: %v)\n",
		sum.BestUA, sum.BestUAPct, sum.BestOther, sum.BestOtherPct, sum.UAWinsOrTies)

	if *validate {
		fmt.Println()
		trace.WriteValidationTable(os.Stdout, bench.ValidateFigure(sys, fig, *scale))
	}

	if *tune {
		fmt.Println()
		tunePipelines(sys, l, fig, *scale)
	}
}

// tunePipelines sweeps the figure's headline UA configuration over the
// PrefetchDepth × MaxInflight grid on the timed backend and prints the
// ranking head: how queue depth on the copy engines moves the optimum.
func tunePipelines(sys universal.SimSystem, l bench.Layer, fig bench.Figure, scale int) {
	pk, pt, ok := headlineUA(fig)
	if !ok {
		return
	}
	if scale <= 0 {
		scale = 16
	}
	m, n, k := l.Dims(pt.Batch)
	m, n, k = m/scale, n/scale, k/scale
	cand := autotune.Candidate{Part: pk, ReplAB: pt.ReplAB, ReplC: pt.ReplC, Stationary: pt.Stationary}
	fmt.Printf("pipeline tuning: UA - %v cAB=%d cC=%d %v @ batch %d (1/%d scale)\n",
		pk, pt.ReplAB, pt.ReplC, pt.Stationary, pt.Batch, scale)
	choices := autotune.TunePipeline(sys, m, n, k, cand, autotune.PipelineOptions{})
	best := choices[0]
	fmt.Printf("  %-22s best prefetch=%d inflight=%d (%.4gs, queue %.4gs)",
		sys.Topo.Name(), best.PrefetchDepth, best.MaxInflight, best.Seconds, best.QueueDelaySeconds)
	if len(choices) > 1 {
		worst := choices[len(choices)-1]
		fmt.Printf("  [worst %d/%d: %.4gs]", worst.PrefetchDepth, worst.MaxInflight, worst.Seconds)
	}
	fmt.Println()
}

// headlineUA finds the best UA point in the figure along with its
// partitioning (Figure.BestUAPoint drops the series identity).
func headlineUA(fig bench.Figure) (bench.Partitioning, bench.Point, bool) {
	var bestPk bench.Partitioning
	best := bench.Point{PercentOfPeak: -1}
	found := false
	for _, pk := range bench.UAPartitionings {
		s := fig.ByName("UA - " + pk.String())
		for _, pt := range s.Points {
			if pt.PercentOfPeak > best.PercentOfPeak {
				best, bestPk, found = pt, pk, true
			}
		}
	}
	return bestPk, best, found
}
