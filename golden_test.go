package slicing_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slicing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/workload_counts.golden")

// goldenModelLayout is one of the model-replay workload's layouts. The
// layouts, cluster sizes and problem shape are copied from
// benchmark/model.go; keep them in step with it.
type goldenModelLayout struct {
	name                string
	partA, partB, partC slicing.Partition
	// replAB / replC of 0 mean "one replica per node".
	replAB, replC int
	stat          slicing.Stationary
}

var goldenModelLayouts = []goldenModelLayout{
	{"column", slicing.ColBlock{}, slicing.ColBlock{}, slicing.ColBlock{}, 1, 1, slicing.StationaryAuto},
	{"block2d-sc", slicing.Block2D{}, slicing.Block2D{}, slicing.Block2D{}, 1, 1, slicing.StationaryC},
	{"outer-crepl", slicing.ColBlock{}, slicing.RowBlock{}, slicing.Block2D{}, 1, 0, slicing.StationaryAuto},
	{"rowcol-ab2", slicing.RowBlock{}, slicing.ColBlock{}, slicing.Block2D{}, 2, 1, slicing.StationaryAuto},
	{"row", slicing.RowBlock{}, slicing.RowBlock{}, slicing.RowBlock{}, 1, 1, slicing.StationaryAuto},
}

// modelReplayCounts replays the model-replay workload's 15 MLP-1 points
// (batch 8192 on 2, 8 and 16 H100 fat-tree nodes × five layouts) in
// listing order and writes the model executor's total op count and each
// point's makespan, printed with %v so the value is bit-exact.
func modelReplayCounts(buf *bytes.Buffer) {
	const m, n, k = 8192, 49152, 12288
	x := slicing.NewModelExecutor()
	ops := 0
	var spans []string
	for _, nodes := range []int{2, 8, 16} {
		for _, l := range goldenModelLayouts {
			sys := slicing.H100FatTreeSystem(nodes, 8, 2)
			w := slicing.NewModelWorld(8 * nodes)
			replAB, replC := l.replAB, l.replC
			if replAB == 0 {
				replAB = nodes
			}
			if replC == 0 {
				replC = nodes
			}
			a := slicing.NewMatrix(w, m, k, l.partA, replAB)
			b := slicing.NewMatrix(w, k, n, l.partB, replAB)
			c := slicing.NewMatrix(w, m, n, l.partC, replC)
			prob := slicing.NewProblem(c, a, b)
			cfg := slicing.DefaultConfig()
			cfg.Stationary = l.stat
			res := x.Simulate(prob, slicing.CompilePlans(prob, cfg), cfg, sys)
			ops += res.Ops
			spans = append(spans, fmt.Sprintf("model-replay makespan_s/%dn-%s %v\n", nodes, l.name, res.Makespan))
		}
	}
	fmt.Fprintf(buf, "model-replay model_ops %d\n", ops)
	buf.WriteString(strings.Join(spans, ""))
}

// TestWorkloadCountsGolden pins the exact counts the benchmark's workloads
// derive from their compiled plans against testdata/workload_counts.golden,
// one "workload metric value" line each. A change that moves a count shows
// up as a diff of that file; run with -update to rewrite it.
func TestWorkloadCountsGolden(t *testing.T) {
	var buf bytes.Buffer
	modelReplayCounts(&buf)

	path := filepath.Join("testdata", "workload_counts.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
