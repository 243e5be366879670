// Command benchmark is the repository's benchmark (bench/v1): six
// workloads run as interleaved slices in fresh child processes, eight
// bounded end-to-end metrics reported as medians across slices, and a
// traced run that measures every layer from outside. See README.md in
// this directory.
//
//	bash benchmark/run.sh                                  # the whole suite
//	bash benchmark/run.sh -trace 1 -out result.json        # plus per-layer metrics
//	bash benchmark/run.sh -compare OLD.json NEW.json       # apply the bounds
//	bash benchmark/run.sh --workload mm-fine --seed 7 --seconds 15 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// The suite's settings. BENCHMARK.json has no key for them, so they are
// fixed here and recorded in every result. The seed drives only generated
// inputs.
const (
	defaultSeed = 20250928
	suiteRounds = 10
	suiteSliceS = 2.0
	// warmupShare is a slice's warm-up as a share of its measured phase:
	// 0.3 s before the suite's 2 s.
	warmupShare = 0.15
	// runSlices is how many slices a single-workload run (-workload with
	// -seconds) splits its measured seconds into.
	runSlices = 8
	// tracedSlices is how many traced slices a traced run makes per
	// workload.
	tracedSlices = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation of the suite.
type options struct {
	workloads []string
	seed      int64
	rounds    int
	sliceS    float64
	trace     bool
	inProcess bool   // run slices in this process (tests)
	corrupt   bool   // negative-test hook: damage one output before verification
	traceDir  string // where span files go
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload and print the one-line result the driver reads")
		seed     = fs.Int64("seed", defaultSeed, "workload seed: drives generated inputs only")
		seconds  = fs.Float64("seconds", 0, "with -workload: total measured seconds, split into slices")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file per workload")
		out      = fs.String("out", "", "write the bench/v1 result here")
		compare  = fs.Bool("compare", false, "compare two bench/v1 results: -compare OLD.json NEW.json")
		slice    = fs.String("slice", "", "internal: run one slice described by this JSON and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *slice != "":
		return runChild(*slice, stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare OLD.json NEW.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	opt := options{
		workloads: workloadNames, seed: *seed, rounds: suiteRounds, sliceS: suiteSliceS,
		trace: *trace != 0, traceDir: filepath.Join(".bench_build", "traces"),
	}
	if *workload != "" {
		if _, err := newWorkload(*workload); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opt.workloads = []string{*workload}
		if *seconds > 0 {
			// One measured budget, split evenly over the slices of the run.
			opt.rounds = runSlices
			if opt.trace {
				opt.rounds = 3 // reference slices; plus the traced and GOMAXPROCS=1 slices
			}
			n := opt.rounds
			if opt.trace {
				n += tracedSlices + 1
			}
			opt.sliceS = *seconds / float64(n)
		}
	}
	art, err := runSuite(opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printArtifact(stdout, art)
	if *out != "" {
		data, _ := json.MarshalIndent(art, "", " ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *workload != "" {
		fmt.Fprintln(stdout, resultLine(art.Workloads[0], opt.trace, art.correct()))
	}
	if exitCode(art) != 0 {
		fmt.Fprintln(stderr, "benchmark: FAILED: an output was wrong or an op failed")
	}
	return exitCode(art)
}

// exitCode is the command's exit code for a finished suite: non-zero if
// any output was wrong or any op failed.
func exitCode(art *artifact) int {
	if art.correct() {
		return 0
	}
	return 1
}

// resultLine is the one JSON object the driver reads from the last line:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func resultLine(w workloadResult, trace, correct bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	if trace {
		for _, spec := range perLayer {
			ms[spec.Name] = value{w.Layer[spec.Name].Value, spec.Unit}
		}
	} else {
		for _, spec := range endToEnd {
			ms[spec.Name] = value{w.E2E[spec.Name].Value, spec.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(w.Attempted, 1), w.Failed, ms})
	return string(line)
}

// runSuite runs the rounds: each round runs every workload once, round
// robin, as one slice; a traced run interleaves its traced slices with
// the first rounds, then measures each workload at GOMAXPROCS=1 and the
// workload-independent probes.
func runSuite(opt options, progress io.Writer) (*artifact, error) {
	if opt.rounds < 1 || opt.sliceS <= 0 {
		return nil, fmt.Errorf("need at least one round and a positive slice length")
	}
	art := &artifact{
		Schema: artifactSchema, Seed: opt.seed, Rounds: opt.rounds,
		SliceSeconds: opt.sliceS, Env: currentFingerprint(),
	}
	cols := make([]*collector, len(opt.workloads))
	for i, name := range opt.workloads {
		cols[i] = &collector{name: name}
	}
	base := sliceConfig{Seed: opt.seed, Seconds: opt.sliceS}
	traced := 0
	if opt.trace {
		traced = tracedSlices
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	for round := 0; round < max(opt.rounds, traced); round++ {
		for _, c := range cols {
			cfg := base
			cfg.Workload = c.name
			if round < opt.rounds {
				cfg.Corrupt = opt.corrupt && round == 0
				res := runOneSlice(cfg, opt.inProcess)
				c.add(res, &c.untraced)
				fmt.Fprintf(progress, "round %d/%d %-13s %s\n", round+1, opt.rounds, c.name, sliceSummary(res))
			}
			if round < traced {
				cfg.Corrupt = false
				cfg.Trace = true
				c.spanFile = filepath.Join(opt.traceDir, c.name+".spans.json")
				cfg.SpanFile = c.spanFile
				res := runOneSlice(cfg, opt.inProcess)
				c.add(res, &c.traced)
				fmt.Fprintf(progress, "traced %d/%d %-12s %s\n", round+1, traced, c.name, sliceSummary(res))
			}
		}
	}
	if opt.trace {
		for _, c := range cols {
			cfg := base
			cfg.Workload, cfg.Procs = c.name, 1
			res := runOneSlice(cfg, opt.inProcess)
			c.add(res, nil)
			c.oneProc = &res
			fmt.Fprintf(progress, "GOMAXPROCS=1 %-10s %s\n", c.name, sliceSummary(res))
		}
		probe := runOneSlice(sliceConfig{Probe: true}, opt.inProcess)
		if probe.Err != "" {
			return nil, fmt.Errorf("probes: %s", probe.Err)
		}
		for _, c := range cols {
			c.probe = probe.Layer
		}
	}
	for _, c := range cols {
		art.Workloads = append(art.Workloads, c.result(opt.trace))
	}
	return art, nil
}

func sliceSummary(res sliceResult) string {
	if res.Err != "" {
		return "ERROR " + res.Err
	}
	return fmt.Sprintf("%7d ops  p50 %.4g ms  %.5g ops/s", res.Samples, res.E2E["op_ms_p50"], res.E2E["ops_per_s"])
}

// runOneSlice runs a slice in a fresh child process of this binary (or in
// this process, for tests), waits for it to end, and returns its result.
func runOneSlice(cfg sliceConfig, inProcess bool) sliceResult {
	if inProcess {
		return runSlice(cfg)
	}
	fail := func(err error) sliceResult {
		return sliceResult{Workload: cfg.Workload, Err: "slice process: " + err.Error()}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	// Far longer than any healthy slice; a hung one is killed and waited
	// for.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.Seconds+100)*time.Second)
	defer cancel()
	cfg.StartUnixNano = time.Now().UnixNano()
	arg, _ := json.Marshal(cfg)
	cmd := exec.CommandContext(ctx, exe, "-slice", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res sliceResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return fail(runErr)
		}
		return fail(fmt.Errorf("unreadable result: %w", err))
	}
	return res
}

// runChild is the slice process: it measures one slice and prints the
// result as one line of JSON.
func runChild(arg string, stdout, stderr io.Writer) int {
	var cfg sliceConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		fmt.Fprintln(stderr, "benchmark: bad -slice:", err)
		return 2
	}
	line, _ := json.Marshal(runSlice(cfg))
	fmt.Fprintln(stdout, string(line))
	return 0
}
