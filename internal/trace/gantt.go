package trace

import (
	"fmt"
	"io"
	"strings"

	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
)

// WriteGantt renders a discrete-event schedule as an ASCII timeline: one
// row per resource, time flowing right, each op drawn as a run of its kind
// marker (C = compute, G = get, A = accumulate, o = other). It makes the
// overlap structure of §4.2/§4.3 schedules visible: a healthy
// direct-execution schedule shows the compute rows densely packed while
// the comm rows work in the background. A per-resource utilization figure
// is printed at the end of each row. A timed run renders the same way from
// its world's Schedule(): device engines and, over a link-routed
// topology, one lane per fabric link.
func WriteGantt(w io.Writer, eng *gpusim.Engine, res gpusim.Result, width int) {
	if width <= 0 {
		width = 80
	}
	if res.Makespan <= 0 {
		fmt.Fprintln(w, "(empty schedule)")
		return
	}
	names := make([]string, eng.NumResources())
	rows := make([][]byte, len(names))
	nameWidth := 8
	for r := range names {
		names[r] = eng.ResourceName(gpusim.ResourceID(r))
		nameWidth = max(nameWidth, len(names[r]))
		rows[r] = []byte(strings.Repeat(".", width))
	}
	for _, tm := range res.Timings {
		if tm.End <= tm.Start {
			continue
		}
		from := int(tm.Start / res.Makespan * float64(width))
		to := int(tm.End / res.Makespan * float64(width))
		if to <= from {
			to = from + 1
		}
		if to > width {
			to = width
		}
		mark := markerFor(tm.Kind)
		for _, r := range tm.Resources {
			row := rows[r]
			for c := from; c < to; c++ {
				row[c] = mark
			}
		}
	}
	fmt.Fprintf(w, "makespan %.6fs  (C=compute G=get A=accum)\n", res.Makespan)
	for r := range names {
		util := res.Utilization(gpusim.ResourceID(r))
		fmt.Fprintf(w, "%2d %-*s |%s| %5.1f%%\n", r, nameWidth, names[r], rows[r], util*100)
	}
}

// WriteLinkUtilization renders the per-link fabric accounting of a timed
// run (runtime.FabricStatsOf) as one utilization bar per link: occupancy
// over the run, queue delay the link imposed, and payload carried. Links
// that never carried traffic are skipped so fat-tree reports stay
// readable; pass makespan = TimedWorld.PredictedSeconds().
func WriteLinkUtilization(w io.Writer, links []rt.LinkStats, makespan float64, width int) {
	if width <= 0 {
		width = 40
	}
	var shown []rt.LinkStats
	nameWidth := 8
	for _, l := range links {
		if l.Bytes == 0 && l.BusySeconds == 0 {
			continue
		}
		shown = append(shown, l)
		if len(l.Link) > nameWidth {
			nameWidth = len(l.Link)
		}
	}
	fmt.Fprintf(w, "per-link fabric utilization over %.6fs\n", makespan)
	for _, l := range shown {
		frac := 0.0
		if makespan > 0 {
			frac = l.BusySeconds / makespan
		}
		fill := int(frac*float64(width) + 0.5)
		if fill > width {
			fill = width
		}
		bar := strings.Repeat("#", fill) + strings.Repeat(".", width-fill)
		fmt.Fprintf(w, "%-*s |%s| %5.1f%%  %8.2f MB  queue %.3gs\n",
			nameWidth, l.Link, bar, frac*100, float64(l.Bytes)/1e6, l.QueueDelaySeconds)
	}
	if len(shown) == 0 {
		fmt.Fprintln(w, "(no fabric traffic)")
	}
}

func markerFor(k gpusim.OpKind) byte {
	switch k {
	case gpusim.OpCompute:
		return 'C'
	case gpusim.OpComm:
		return 'G'
	case gpusim.OpAccum:
		return 'A'
	default:
		return 'o'
	}
}
