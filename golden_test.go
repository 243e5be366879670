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
	"slicing/internal/universal"
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

// goldenMMWorkload is one of the benchmark's mm-* workloads: one whole
// distributed multiply per op. The shapes are copied from
// benchmark/workloads.go (newWorkload); keep them in step with it.
type goldenMMWorkload struct {
	name                string
	p, m, n, k          int
	partA, partB, partC slicing.Partition
	replA               int
	stat                slicing.Stationary
}

var goldenFine = slicing.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}

var goldenMMWorkloads = []goldenMMWorkload{
	{"mm-block", 4, 1024, 1024, 1024, slicing.Block2D{}, slicing.Block2D{}, slicing.Block2D{}, 1, slicing.StationaryC},
	{"mm-fine", 4, 256, 256, 256, goldenFine, goldenFine, goldenFine, 1, slicing.StationaryC},
	{"mm-skew", 4, 512, 512, 512, slicing.ColBlock{},
		slicing.Custom{TileRows: 96, TileCols: 80, ProcRows: 2, ProcCols: 2},
		slicing.Custom{TileRows: 72, TileCols: 104, ProcRows: 2, ProcCols: 2},
		2, slicing.StationaryA},
}

// goldenServeShapes are the serve-* workloads' tenant shapes: square
// GEMMs of dim on a 2×2 grid of tile×tile tiles, one row per distinct
// shape (serve-small's four tenants share one). The shapes are copied
// from benchmark/workloads.go (newWorkload's tenantShape lists); keep
// them in step with it.
var goldenServeShapes = []struct {
	workload  string
	dim, tile int
}{
	{"serve-small", 16, 16},
	{"serve-mixed", 16, 16},
	{"serve-mixed", 64, 64},
	{"serve-mixed", 256, 128},
}

// goldenServeWorkloads turns each serve shape into a row named
// "<workload>/<dim>", compiled like the benchmark's per-tenant problems:
// four PEs, no replication, the default stationary choice.
func goldenServeWorkloads() []goldenMMWorkload {
	var out []goldenMMWorkload
	for _, sh := range goldenServeShapes {
		part := slicing.Custom{TileRows: sh.tile, TileCols: sh.tile, ProcRows: 2, ProcCols: 2}
		out = append(out, goldenMMWorkload{fmt.Sprintf("%s/%d", sh.workload, sh.dim), 4, sh.dim, sh.dim, sh.dim,
			part, part, part, 1, slicing.StationaryAuto})
	}
	return out
}

// mmCounts writes each mm-* workload's per-op counts, derived from its
// compiled plan alone: steps and flops; fetches and their bytes (every
// fetch is a remote get); accumulates (one per chain, issued by its last,
// unchained step) and their bytes, split by whether the C tile is remote.
func mmCounts(buf *bytes.Buffer, workloads []goldenMMWorkload) {
	for _, wl := range workloads {
		w := slicing.NewModelWorld(wl.p)
		a := slicing.NewMatrix(w, wl.m, wl.k, wl.partA, wl.replA)
		b := slicing.NewMatrix(w, wl.k, wl.n, wl.partB, 1)
		c := slicing.NewMatrix(w, wl.m, wl.n, wl.partC, 1)
		cfg := slicing.DefaultConfig()
		cfg.Stationary = wl.stat
		cp := slicing.CompilePlans(slicing.NewProblem(c, a, b), cfg)
		var flops float64
		var fetches, getBytes, accums, remoteAccBytes, localAccBytes int
		for _, pl := range cp.Plans {
			flops += pl.TotalFlops()
			getBytes += pl.RemoteFetchBytes()
			remoteAccBytes += pl.RemoteAccumBytes()
			for _, s := range pl.Steps {
				if s.FetchA {
					fetches++
				}
				if s.FetchB {
					fetches++
				}
				if s.Chained {
					continue
				}
				accums++
				if s.CLocal {
					localAccBytes += s.AccumBytes
				}
			}
		}
		fmt.Fprintf(buf, "%s steps %d\n", wl.name, cp.Steps())
		fmt.Fprintf(buf, "%s flops %v\n", wl.name, flops)
		fmt.Fprintf(buf, "%s fetches %d\n", wl.name, fetches)
		fmt.Fprintf(buf, "%s remote_get_bytes %d\n", wl.name, getBytes)
		fmt.Fprintf(buf, "%s accums %d\n", wl.name, accums)
		fmt.Fprintf(buf, "%s remote_accum_bytes %d\n", wl.name, remoteAccBytes)
		fmt.Fprintf(buf, "%s local_accum_bytes %d\n", wl.name, localAccBytes)
	}
}

// goldenModelNodes are the model-replay workload's cluster sizes, copied
// from benchmark/model.go with the layouts above.
var goldenModelNodes = []int{2, 8, 16}

// goldenModelPoint lays one model-replay point out on a metadata-only
// world: MLP-1 at batch 8192 on nodes H100 fat-tree nodes in layout l.
func goldenModelPoint(nodes int, l goldenModelLayout) (slicing.Problem, slicing.Config) {
	const m, n, k = 8192, 49152, 12288
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
	cfg := slicing.DefaultConfig()
	cfg.Stationary = l.stat
	return slicing.NewProblem(c, a, b), cfg
}

// modelReplayCounts replays the model-replay workload's 15 MLP-1 points
// (batch 8192 on 2, 8 and 16 H100 fat-tree nodes × five layouts) in
// listing order and writes the model executor's total op count and each
// point's makespan, printed with %v so the value is bit-exact.
func modelReplayCounts(buf *bytes.Buffer) {
	x := slicing.NewModelExecutor()
	ops := 0
	var spans []string
	for _, nodes := range goldenModelNodes {
		for _, l := range goldenModelLayouts {
			sys := slicing.H100FatTreeSystem(nodes, 8, 2)
			prob, cfg := goldenModelPoint(nodes, l)
			res := x.Simulate(prob, slicing.CompilePlans(prob, cfg), cfg, sys)
			ops += res.Ops
			spans = append(spans, fmt.Sprintf("model-replay makespan_s/%dn-%s %v\n", nodes, l.name, res.Makespan))
		}
	}
	fmt.Fprintf(buf, "model-replay model_ops %d\n", ops)
	buf.WriteString(strings.Join(spans, ""))
}

// e8Rows are experiment E8's two rows: 2048³ with A Custom{300,700} over
// the preset's PE grid (misaligned with everything else), B ColBlock and C
// Block2D, Stationary C, on the H100 (8 PEs) and PVC (12 PEs) presets.
var e8Rows = []struct {
	name               string
	sys                func() slicing.SimSystem
	procRows, procCols int
}{
	{"h100", slicing.H100System, 2, 4},
	{"pvc", slicing.PVCSystem, 3, 4},
}

// e8Problem lays E8's problem out on a metadata-only world of
// procRows×procCols PEs at DefaultConfig with C stationary.
func e8Problem(procRows, procCols int) (slicing.Problem, slicing.Config) {
	w := slicing.NewModelWorld(procRows * procCols)
	a := slicing.NewMatrix(w, 2048, 2048, slicing.Custom{TileRows: 300, TileCols: 700, ProcRows: procRows, ProcCols: procCols}, 1)
	b := slicing.NewMatrix(w, 2048, 2048, slicing.ColBlock{}, 1)
	c := slicing.NewMatrix(w, 2048, 2048, slicing.Block2D{}, 1)
	cfg := slicing.DefaultConfig()
	cfg.Stationary = slicing.StationaryC
	return slicing.NewProblem(c, a, b), cfg
}

// generatedOrder is a CompileOrdered order that puts each rank's steps
// back in the order GenerateOps produced them, undoing the compiler's
// order pass. It matches steps to ops by value, so it assumes no excluded
// ranks (adopted ops are not generated by the rank that runs them).
func generatedOrder(prob slicing.Problem, stat slicing.Stationary) func(int, universal.Plan) []int {
	return func(rank int, pl universal.Plan) []int {
		at := make(map[slicing.LocalOp][]int, len(pl.Steps))
		for i, s := range pl.Steps {
			at[s.Op] = append(at[s.Op], i)
		}
		perm := make([]int, 0, len(pl.Steps))
		for _, op := range slicing.GenerateOps(rank, prob, stat) {
			perm = append(perm, at[op][0])
			at[op] = at[op][1:]
		}
		return perm
	}
}

// e8Makespans prices E8's problem on sys twice with x: in the compiler's
// order (CompilePlans) and in the generated order (CompileOrdered).
func e8Makespans(x *slicing.ModelExecutor, sys slicing.SimSystem, prob slicing.Problem, cfg slicing.Config) (compiler, generated float64) {
	compiler = x.Simulate(prob, slicing.CompilePlans(prob, cfg), cfg, sys).Makespan
	gen := universal.CompileOrdered(prob, cfg, generatedOrder(prob, cfg.Stationary))
	return compiler, x.Simulate(prob, gen, cfg, sys).Makespan
}

// e8Counts writes both E8 makespans of each row, printed with %v so the
// value is bit-exact.
func e8Counts(buf *bytes.Buffer) {
	x := slicing.NewModelExecutor()
	for _, row := range e8Rows {
		prob, cfg := e8Problem(row.procRows, row.procCols)
		compiler, generated := e8Makespans(x, row.sys(), prob, cfg)
		fmt.Fprintf(buf, "e8/%s compiler_makespan_s %v\n", row.name, compiler)
		fmt.Fprintf(buf, "e8/%s generated_makespan_s %v\n", row.name, generated)
	}
}

// TestWorkloadCountsGolden pins the exact counts the benchmark's workloads
// derive from their compiled plans, and E8's makespans, against
// testdata/workload_counts.golden, one "workload metric value" line each.
// A change that moves a count shows up as a diff of that file; run with
// -update to rewrite it.
func TestWorkloadCountsGolden(t *testing.T) {
	var buf bytes.Buffer
	modelReplayCounts(&buf)
	mmCounts(&buf, goldenMMWorkloads)
	mmCounts(&buf, goldenServeWorkloads())
	e8Counts(&buf)

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
