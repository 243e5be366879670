package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The names, units, directions and bounds in BENCHMARK.json are the ones
// the code emits and -compare applies.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated name %q", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("bad or repeated name %q", want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", b.RunSeconds)
	}
}

// smokeOptions is the whole suite at its smallest: one round of 100 ms
// slices, in this process.
func smokeOptions(t *testing.T) options {
	return options{
		workloads: workloadNames, seed: 7, rounds: 1, sliceS: 0.1,
		trace: true, inProcess: true, traceDir: t.TempDir(),
	}
}

// The suite runs every workload without failures, and emits exactly the
// workload and metric names of the spec.
func TestSmokeSuite(t *testing.T) {
	art, err := runSuite(smokeOptions(t), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !art.correct() {
		var out bytes.Buffer
		printArtifact(&out, art)
		t.Fatalf("suite not correct:\n%s", out.String())
	}
	if len(art.Workloads) != len(workloadNames) {
		t.Fatalf("got %d workloads", len(art.Workloads))
	}
	for i, w := range art.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Attempted == 0 || w.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", w.Name, w.Attempted, w.Failed)
		}
		if len(w.E2E) != len(endToEnd)+1 { // plus failed_pct
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(w.E2E), len(endToEnd)+1)
		}
		for _, spec := range endToEnd {
			if st, ok := w.E2E[spec.Name]; !ok || !(st.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, spec.Name, st.Value)
			}
		}
		if len(w.Layer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.Layer), len(perLayer))
		}
		for _, spec := range perLayer {
			if _, ok := w.Layer[spec.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, spec.Name)
			}
		}
		if st, err := os.Stat(w.SpanFile); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file %q: %v", w.Name, w.SpanFile, err)
		}
		// The driver's result line carries exactly the spec's names.
		for _, trace := range []bool{false, true} {
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Failed    int64                      `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(w, trace, true)), &line); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(line.Metrics) != len(want) || !line.Correct || line.Attempted < 1 {
				t.Errorf("%s: result line (trace %v) has %d metrics, want %d", w.Name, trace, len(line.Metrics), len(want))
			}
			for _, spec := range want {
				if _, ok := line.Metrics[spec.Name]; !ok {
					t.Errorf("%s: result line (trace %v) lacks %s", w.Name, trace, spec.Name)
				}
			}
		}
	}
	// What the layers must report on a healthy run.
	for _, w := range art.Workloads {
		for _, name := range []string{"serve.rejected", "serve.shed", "serve.failed", "universal.pool_live_after"} {
			if v := w.Layer[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w.Name, name, v)
			}
		}
		// The executor cannot take less than the kernel floor it contains:
		// a negative overhead means the two sides count different ops.
		if v := w.Layer["universal.overhead_ms"].Value; v < 0 {
			t.Errorf("%s: universal.overhead_ms = %v, want >= 0", w.Name, v)
		}
	}
}

// Corrupting one entry of C, or one model point's makespan, fails ops and
// makes the command exit non-zero.
func TestCorruptionIsCaught(t *testing.T) {
	for _, name := range []string{"mm-fine", "serve-small", "model-replay"} {
		res := runSlice(sliceConfig{Workload: name, Seed: 3, Seconds: 0.05, Corrupt: true})
		if res.Failed == 0 || res.Err == "" {
			t.Errorf("%s: corruption went unnoticed: %+v", name, res)
		}
		if res.E2E != nil && !(res.E2E["failed_pct"] > 0) {
			t.Errorf("%s: failed_pct = %v after corruption", name, res.E2E["failed_pct"])
		}
	}
	opt := smokeOptions(t)
	opt.workloads, opt.trace, opt.corrupt = []string{"mm-fine"}, false, true
	art, err := runSuite(opt, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if exitCode(art) == 0 {
		t.Error("the command would exit 0 on a corrupted output")
	}
	if line := resultLine(art.Workloads[0], false, art.correct()); !strings.Contains(line, `"correct":false`) {
		t.Errorf("result line does not say correct:false: %s", line)
	}
}

// failingWorkload completes no op.
type failingWorkload struct{ modelWorkload }

func (*failingWorkload) setup(*sliceEnv) error    { return nil }
func (*failingWorkload) firstOps() []int          { return nil }
func (*failingWorkload) op(int) (int, error)      { return 0, errors.New("refused") }
func (*failingWorkload) verify(bool) (int, error) { return 0, nil }

// A slice with zero completed ops is a failure, not a 0.
func TestNoCompletedOpIsAFailure(t *testing.T) {
	res := measure(sliceConfig{Workload: "failing", Seconds: 0.01}, &failingWorkload{}, time.Now())
	if res.Err == "" || res.Failed == 0 || res.E2E != nil {
		t.Errorf("got %+v, want an error, failed ops and no metrics", res)
	}
	c := &collector{name: "failing"}
	c.add(res, &c.untraced)
	a := &artifact{Workloads: []workloadResult{c.result(false)}}
	if a.correct() {
		t.Error("an artifact with a failed slice counts as correct")
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name       string
		start, end int64
		children   []interval
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"disjoint", 0, 100, []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping count once", 0, 100, []interval{{10, 40}, {30, 60}}, 50},
		{"nested", 0, 100, []interval{{10, 90}, {20, 30}}, 20},
		{"unsorted", 0, 100, []interval{{50, 70}, {10, 20}}, 70},
		{"clipped to the span", 10, 100, []interval{{0, 20}, {90, 120}}, 70},
		{"fully covered", 0, 100, []interval{{0, 60}, {60, 100}}, 0},
		{"concurrent workers", 0, 100, []interval{{0, 50}, {0, 50}, {0, 50}, {50, 80}}, 20},
	}
	for _, c := range cases {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q := quartiles(v); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	if s := spreadOf(v); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func artifactWith(values map[string][]float64) *artifact {
	w := workloadResult{Name: "mm-fine", Attempted: 100, E2E: map[string]e2eStat{}}
	for name, v := range values {
		w.E2E[name] = e2eStat{Value: median(v), Values: v}
	}
	return &artifact{Schema: artifactSchema, Rounds: 3, SliceSeconds: 2, Env: fingerprint{CPU: "x", NProc: 2}, Workloads: []workloadResult{w}}
}

func TestCompareVerdicts(t *testing.T) {
	base := artifactWith(map[string][]float64{
		"op_ms_p50": {1.00, 1.01, 0.99}, "ops_per_s": {100, 101, 99}, "op_ms_p90": {2, 2.02, 1.98}, "setup_s": {0.010, 0.011, 0.009},
	})
	next := artifactWith(map[string][]float64{
		"op_ms_p50": {1.40, 1.41, 1.39},    // 40 % slower: worse
		"ops_per_s": {140, 141, 139},       // 40 % more: better
		"op_ms_p90": {2.0, 2.9, 1.4},       // same median, spread wider than the bound
		"setup_s":   {0.020, 0.021, 0.019}, // doubled, but inside the 50 ms slack
	})
	rows, err := compareArtifacts(base, next)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]verdict{}
	for _, c := range rows[0] {
		got[c.metric] = c.verdict
	}
	want := map[string]verdict{"op_ms_p50": worse, "ops_per_s": better, "op_ms_p90": unresolved, "setup_s": same, "failed_pct": same}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: %s, want %s", m, got[m], v)
		}
	}
	// A result compared with itself is all same; more failures are worse.
	rows, _ = compareArtifacts(base, base)
	for _, c := range rows[0] {
		if c.verdict != same {
			t.Errorf("self-compare %s: %s", c.metric, c.verdict)
		}
	}
	failing := artifactWith(map[string][]float64{"op_ms_p50": {1, 1, 1}})
	failing.Workloads[0].Failed = 1
	rows, _ = compareArtifacts(base, failing)
	if last := rows[0][len(rows[0])-1]; last.metric != "failed_pct" || last.verdict != worse {
		t.Errorf("more failures judged %+v", last)
	}
	// Environments and settings may not be mixed; commits may.
	other := artifactWith(nil)
	other.Env.Commit = "abc"
	if _, err := compareArtifacts(base, other); err != nil {
		t.Errorf("a different commit was refused: %v", err)
	}
	other.Env.NProc = 4
	if _, err := compareArtifacts(base, other); err == nil {
		t.Error("mixed environments were compared")
	}
	other.Env.NProc, other.Rounds = 2, 10
	if _, err := compareArtifacts(base, other); err == nil {
		t.Error("mixed settings were compared")
	}
}

// The -compare command reads two result files and sets its exit code.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, a *artifact) string {
		data, _ := json.Marshal(a)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", artifactWith(map[string][]float64{"op_ms_p50": {1.00, 1.01, 0.99}}))
	slow := write("new.json", artifactWith(map[string][]float64{"op_ms_p50": {1.40, 1.41, 1.39}}))
	var out bytes.Buffer
	if code := run([]string{"-compare", base, base}, &out, &out); code != exitSame {
		t.Errorf("self-compare exited %d\n%s", code, out.String())
	}
	if code := run([]string{"-compare", base, slow}, &out, &out); code != exitWorse {
		t.Errorf("regression exited %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("output does not name the regression:\n%s", out.String())
	}
}

// The benchmark may import the root façade and three leaf packages only,
// and may not call executor entry points, so later refactors of the
// layers in between keep it compiling unedited.
func TestImportRule(t *testing.T) {
	allowed := map[string]bool{
		"slicing": true, "slicing/internal/tile": true, "slicing/internal/index": true, "slicing/internal/runtime": true,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "slicing") && !allowed[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Execute") {
					t.Errorf("%s calls executor entry point %s", name, sel.Sel.Name)
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("parsed no files")
	}
}
