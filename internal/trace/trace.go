// Package trace renders benchmark results as text: aligned tables (the
// rows the paper's tables report) and ASCII approximations of the
// percent-of-peak figures (mlp_experiments -plot), playing the role of the
// artifact's plot_mlp{1,2}.py scripts.
package trace

import (
	"fmt"
	"io"
	"strings"

	"slicing/internal/bench"
)

// WriteFigureTable renders a figure's series as an aligned text table with
// the replication annotation and stationary strategy per point, one row
// per series.
func WriteFigureTable(w io.Writer, fig bench.Figure) {
	fmt.Fprintf(w, "%s\n", fig.Title)
	batches := batchesOf(fig)
	fmt.Fprintf(w, "%-20s", "series")
	for _, b := range batches {
		fmt.Fprintf(w, " %14d", b)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 20+15*len(batches)))
	for _, s := range fig.Series {
		fmt.Fprintf(w, "%-20s", s.Name)
		for _, pt := range s.Points {
			label := fmt.Sprintf("%5.1f%% (%s)", pt.PercentOfPeak, pt.ReplLabel())
			fmt.Fprintf(w, " %14s", label)
		}
		fmt.Fprintln(w)
	}
}

// WriteFigureChart renders an ASCII chart of percent-of-peak versus batch
// size: one column group per batch, one marker per series, y axis 0-100%.
func WriteFigureChart(w io.Writer, fig bench.Figure, height int) {
	if height <= 0 {
		height = 20
	}
	batches := batchesOf(fig)
	markers := "ABCDEFGHIJKLMNOP"
	colWidth := 6

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", len(batches)*colWidth))
	}
	for si, s := range fig.Series {
		if si >= len(markers) {
			break
		}
		for bi, pt := range s.Points {
			row := height - 1 - int(pt.PercentOfPeak/100*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			col := bi*colWidth + si%colWidth
			if grid[row][col] == ' ' {
				grid[row][col] = markers[si]
			}
		}
	}

	fmt.Fprintf(w, "%s\n", fig.Title)
	for i, line := range grid {
		pct := 100 * (height - 1 - i) / (height - 1)
		fmt.Fprintf(w, "%3d%% |%s\n", pct, string(line))
	}
	fmt.Fprintf(w, "     +%s\n", strings.Repeat("-", len(batches)*colWidth))
	fmt.Fprintf(w, "      ")
	for _, b := range batches {
		fmt.Fprintf(w, "%-*d", colWidth, b)
	}
	fmt.Fprintln(w)
	for si, s := range fig.Series {
		if si >= len(markers) {
			break
		}
		fmt.Fprintf(w, "  %c = %s\n", markers[si], s.Name)
	}
}

// WriteValidationTable renders estimator-vs-timed validation points as a
// table: the plan-replay estimate per UA series, the timed backend's
// measurement of the same configuration, and the signed error between
// them in percent-of-peak points — the annotation the figure harness
// attaches under each estimator curve.
func WriteValidationTable(w io.Writer, pts []bench.ValidationPoint) {
	if len(pts) == 0 {
		return
	}
	fmt.Fprintf(w, "validation points (timed runs at 1/%d scale; err = timed - estimator, %%-of-peak points)\n",
		pts[0].Scale)
	fmt.Fprintf(w, "%-20s %6s %8s %8s %7s\n", "series", "batch", "est", "timed", "err")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 53))
	for _, v := range pts {
		fmt.Fprintf(w, "%-20s %6d %7.1f%% %7.1f%% %+7.1f\n",
			v.Series, v.Batch, v.EstimatorPct, v.TimedPct, v.Err)
	}
}

func batchesOf(fig bench.Figure) []int {
	if len(fig.Series) == 0 {
		return nil
	}
	var out []int
	for _, pt := range fig.Series[0].Points {
		out = append(out, pt.Batch)
	}
	return out
}

// Summary holds a compact comparison row used by EXPERIMENTS.md: the best
// UA series versus the best competitor at the largest batch.
type Summary struct {
	Figure       string
	BestUA       string
	BestUAPct    float64
	BestOther    string
	BestOtherPct float64
	UAWinsOrTies bool
}

// Summarize extracts the headline comparison from a figure at its largest
// batch size.
func Summarize(fig bench.Figure) Summary {
	sum := Summary{Figure: fig.Title}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1].PercentOfPeak
		if strings.HasPrefix(s.Name, "UA") {
			if last > sum.BestUAPct {
				sum.BestUAPct = last
				sum.BestUA = s.Name
			}
		} else {
			if last > sum.BestOtherPct {
				sum.BestOtherPct = last
				sum.BestOther = s.Name
			}
		}
	}
	// "Competitive" in the paper means within ~5%; count that as a tie.
	sum.UAWinsOrTies = sum.BestUAPct >= sum.BestOtherPct*0.95
	return sum
}
