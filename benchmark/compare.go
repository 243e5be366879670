package main

import (
	"fmt"
	"io"
	"sort"
)

// verdict is what -compare says about one (workload, end-to-end metric).
type verdict string

const (
	same       verdict = "same"       // within the bound, and the spread is narrower than the bound
	better     verdict = "better"     // improved by more than the bound, or every new slice beats every old one
	worse      verdict = "worse"      // the reported value worsened by more than the bound
	unresolved verdict = "unresolved" // within the bound, but the slice-to-slice spread is wider than the bound
)

var verdictMark = map[verdict]string{same: "=", better: "+", worse: "-", unresolved: "?"}

// Exit codes of -compare.
const (
	exitSame       = 0
	exitWorse      = 1
	exitUnresolved = 2
	exitRefused    = 3
)

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same code: counts made by the program, not timings.
var exactCounts = []string{
	"tile.gemm_calls", "tile.flops", "index.ops", "universal.plan_steps",
	"shmem.remote_get_mb", "shmem.remote_accum_mb", "shmem.local_accum_mb", "shmem.remote_ops",
	"universal.model_ops", "universal.model_makespan_sum_s",
}

// quartiles returns the three cut points of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so the spread
// judged here is the spread the driver judges.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spreadOf is the distance between the first and third quartile as a share
// of the median.
func spreadOf(v []float64) float64 {
	q := quartiles(v)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// comparison is one row cell of -compare.
type comparison struct {
	workload, metric         string
	oldValue, newValue       float64
	worsening, spread, limit float64
	verdict                  verdict
}

// judge applies one end-to-end metric's bound to an old and a new result.
func judge(spec metricSpec, o, n e2eStat) comparison {
	c := comparison{metric: spec.Name, oldValue: o.Value, newValue: n.Value, limit: spec.Bound}
	if o.Value != 0 {
		c.worsening = (n.Value - o.Value) / o.Value
		if spec.Better == higher {
			c.worsening = -c.worsening
		}
		if spec.Name == "setup_s" {
			// Short set-ups may move by an absolute slack.
			c.limit = max(c.limit, setupFloorS/o.Value)
		}
	}
	c.spread = max(spreadOf(o.Values), spreadOf(n.Values))
	allBetter := len(o.Values) > 0 && len(n.Values) > 0
	for _, nv := range n.Values {
		for _, ov := range o.Values {
			if (spec.Better == lower && nv >= ov) || (spec.Better == higher && nv <= ov) {
				allBetter = false
			}
		}
	}
	switch {
	case c.worsening > c.limit:
		c.verdict = worse
	case allBetter || (-c.worsening > c.limit && c.spread <= c.limit):
		c.verdict = better
	case c.spread > c.limit:
		c.verdict = unresolved
	default:
		c.verdict = same
	}
	return c
}

// compareArtifacts judges every (workload, end-to-end metric) present in
// both results, in BENCHMARK.json's order.
func compareArtifacts(o, n *artifact) (rows [][]comparison, err error) {
	if !o.Env.sameEnvironment(n.Env) {
		return nil, fmt.Errorf("environments differ, refusing to compare:\n  old %+v\n  new %+v", o.Env, n.Env)
	}
	// A whole-suite result and a single-workload (-workload -seconds) one
	// cut their time differently.
	if o.Rounds != n.Rounds || o.SliceSeconds != n.SliceSeconds {
		return nil, fmt.Errorf("settings differ, refusing to compare: old %d rounds × %gs, new %d rounds × %gs",
			o.Rounds, o.SliceSeconds, n.Rounds, n.SliceSeconds)
	}
	olds := o.byName()
	for _, nw := range n.Workloads {
		ow, ok := olds[nw.Name]
		if !ok {
			continue
		}
		var row []comparison
		for _, spec := range endToEnd {
			oe, ok1 := ow.E2E[spec.Name]
			ne, ok2 := nw.E2E[spec.Name]
			if !ok1 || !ok2 {
				continue
			}
			c := judge(spec, oe, ne)
			c.workload = nw.Name
			row = append(row, c)
		}
		// failed_pct may not rise at all.
		fc := comparison{workload: nw.Name, metric: "failed_pct", verdict: same,
			oldValue: ow.E2E["failed_pct"].Value, newValue: nw.E2E["failed_pct"].Value}
		if nw.Failed*max(ow.Attempted, 1) > ow.Failed*max(nw.Attempted, 1) {
			fc.verdict = worse
		}
		rows = append(rows, append(row, fc))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the results share no workload")
	}
	return rows, nil
}

func runCompare(oldPath, newPath string, stdout, stderr io.Writer) int {
	o, err := loadArtifact(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitRefused
	}
	n, err := loadArtifact(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitRefused
	}
	rows, err := compareArtifacts(o, n)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitRefused
	}
	fmt.Fprintf(stdout, "old %s (commit %s)\nnew %s (commit %s)\n", oldPath, o.Env.Commit, newPath, n.Env.Commit)
	fmt.Fprintf(stdout, "= same   + better   - worse   ? unresolved (spread wider than the bound)\n\n%-13s", "workload")
	for _, c := range rows[0] {
		fmt.Fprintf(stdout, " %-13s", c.metric)
	}
	fmt.Fprintln(stdout)
	code := exitSame
	var notes []comparison
	for _, row := range rows {
		fmt.Fprintf(stdout, "%-13s", row[0].workload)
		for _, c := range row {
			fmt.Fprintf(stdout, " %-13s", fmt.Sprintf("%s %+.1f%%", verdictMark[c.verdict], 100*c.worsening))
			switch c.verdict {
			case worse:
				code = exitWorse
				notes = append(notes, c)
			case unresolved:
				if code == exitSame {
					code = exitUnresolved
				}
				notes = append(notes, c)
			case better:
				notes = append(notes, c)
			}
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout, "\n(percentages are worsening: positive is worse, whichever direction the metric counts)")
	for _, c := range notes {
		fmt.Fprintf(stdout, "%-10s %-13s %-13s %.6g -> %.6g  (worsening %+.1f%%, spread %.1f%%, bound %.1f%%)\n",
			c.verdict, c.workload, c.metric, c.oldValue, c.newValue, 100*c.worsening, 100*c.spread, 100*c.limit)
	}

	// Exact counts must repeat exactly on the same code; between two
	// commits a difference is information, not a verdict.
	olds := o.byName()
	differ := 0
	for _, nw := range n.Workloads {
		ow := olds[nw.Name]
		if ow.Layer == nil || nw.Layer == nil {
			continue
		}
		for _, name := range exactCounts {
			if ov, nv := ow.Layer[name].Value, nw.Layer[name].Value; ov != nv {
				fmt.Fprintf(stdout, "exact count differs: %-13s %-32s %v -> %v\n", nw.Name, name, ov, nv)
				differ++
			}
		}
	}
	if differ == 0 && len(n.Workloads) > 0 && n.Workloads[0].Layer != nil && o.Workloads[0].Layer != nil {
		fmt.Fprintln(stdout, "exact counts: identical")
	}
	return code
}
