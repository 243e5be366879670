package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"slicing"
)

// metrics maps a metric name to its value in the unit BENCHMARK.json
// gives it.
type metrics map[string]float64

// sliceConfig describes one slice: one workload measured once in a fresh
// process (set-up → warm-up → measured phase → verify).
type sliceConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Trace runs the slice over the timing decorator and fills Layer.
	Trace    bool   `json:"trace,omitempty"`
	SpanFile string `json:"span_file,omitempty"`
	// Procs overrides GOMAXPROCS (0 keeps nproc).
	Procs int `json:"procs,omitempty"`
	// Probe runs the workload-independent layer probes instead of a
	// workload.
	Probe bool `json:"probe,omitempty"`
	// Corrupt damages one output before verification: the negative-test
	// hook, never set by a measuring run.
	Corrupt bool `json:"corrupt,omitempty"`
	// StartUnixNano is the parent's clock when it started the slice's
	// process, so set-up time includes process start.
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
}

// sliceResult is what one slice measured.
type sliceResult struct {
	Workload  string  `json:"workload"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Samples   int64   `json:"samples"`
	E2E       metrics `json:"e2e,omitempty"`
	Layer     metrics `json:"layer,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// sample is one completed op: its latency in nanoseconds, shifted left
// eight bits, with its class in the low byte. Eight bytes per op keep the
// harness's own share of the slice's peak RSS small and proportional to
// the ops completed.
type sample uint64

func newSample(d time.Duration, class int) sample { return sample(uint64(d)<<8 | uint64(uint8(class))) }
func (s sample) ns() int64                        { return int64(s >> 8) }
func (s sample) class() int                       { return int(uint8(s)) }

// phase is one closed-loop run of a workload's clients.
type phase struct {
	samples   [][]sample // successful ops, per client
	attempted int64
	failed    int64
	wall      time.Duration
	firstErr  error
}

// drive runs every client of wl as a closed loop for d (at least one op
// each) and returns when all of them are idle again. perClient sizes the
// sample buffers; a traced phase also ends when the span store fills.
func drive(wl workload, d time.Duration, perClient int, tr *tracer) phase {
	n := wl.clients()
	type part struct {
		samples           []sample
		attempted, failed int64
		firstErr          error
	}
	parts := make([]part, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		parts[i].samples = make([]sample, 0, perClient)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &parts[i]
			for {
				var sp int32
				t0 := time.Now()
				if tr != nil {
					sp = tr.begin(kindOp, -1, tr.root, tr.ops.Add(1))
				}
				class, err := wl.op(i)
				tr.end(sp, 0)
				dt := time.Since(t0)
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				} else {
					p.samples = append(p.samples, newSample(dt, class))
				}
				if !time.Now().Before(deadline) || tr.full() {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	out := phase{wall: time.Since(start), samples: make([][]sample, n)}
	for i := range parts {
		out.samples[i] = parts[i].samples
		out.attempted += parts[i].attempted
		out.failed += parts[i].failed
		if out.firstErr == nil {
			out.firstErr = parts[i].firstErr
		}
	}
	return out
}

// percentileMs returns the nearest-rank q-quantile of sorted latencies,
// in milliseconds.
func percentileMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := max(0, min(int(math.Ceil(q*float64(len(sorted))))-1, len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

// completed returns how many ops of the phase succeeded.
func (ph phase) completed() int {
	n := 0
	for _, s := range ph.samples {
		n += len(s)
	}
	return n
}

// latencies returns the phase's latencies in ascending order, of the
// classes keep accepts.
func (ph phase) latencies(keep func(class int) bool) []int64 {
	out := make([]int64, 0, ph.completed())
	for _, client := range ph.samples {
		for _, s := range client {
			if keep == nil || keep(s.class()) {
				out = append(out, s.ns())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// procSnapshot is the process-side state a phase's deltas come from.
type procSnapshot struct {
	mallocs uint64
	gcPause uint64
	cpu     time.Duration
	prog    progCounters
}

// rusage reads the process's resource usage. Getrusage cannot fail for
// RUSAGE_SELF with a valid pointer, so its error is dropped.
func rusage() (ru syscall.Rusage) {
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func snapshot(wl workload) procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ru := rusage()
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnapshot{mallocs: ms.Mallocs, gcPause: ms.PauseTotalNs, cpu: cpu, prog: wl.counters()}
}

// peakRSSMB is the process's high-water RSS; Linux reports kilobytes.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// runSlice measures one slice in the current process.
func runSlice(cfg sliceConfig) (res sliceResult) {
	res.Workload = cfg.Workload
	start := time.Now()
	if cfg.StartUnixNano != 0 {
		start = time.Unix(0, cfg.StartUnixNano)
	}
	if cfg.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.Procs))
	}
	defer func() {
		// A panic inside the program under test fails the slice; it must
		// not take an in-process caller down with it.
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	if cfg.Probe {
		res.Layer = metrics{}
		probes(res.Layer)
		return res
	}
	wl, err := newWorkload(cfg.Workload)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	return measure(cfg, wl, start)
}

// measure takes one workload through a slice's phases: set-up and first
// op, warm-up, the measured phase, verification, and on a traced slice the
// layer analysis.
func measure(cfg sliceConfig, wl workload, start time.Time) (res sliceResult) {
	res.Workload = cfg.Workload
	defer wl.close()

	env := &sliceEnv{rng: rand.New(rand.NewSource(cfg.Seed)), newWorld: slicing.NewWorld}
	if cfg.Trace {
		env.tr = newTracer()
		env.newWorld = func(p int) slicing.World { return newTracedWorld(slicing.NewWorld(p), env.tr) }
	}

	// Set-up ends when the first op of every class has returned. Their
	// results are checked with the rest after the measured phase, not here:
	// the oracle's gathers would count towards the slice's peak RSS.
	if err := wl.setup(env); err != nil {
		res.Err, res.Attempted, res.Failed = "setup: "+err.Error(), 1, 1
		return res
	}
	for _, client := range wl.firstOps() {
		if _, err := wl.op(client); err != nil {
			res.Err, res.Attempted, res.Failed = "first op: "+err.Error(), 1, 1
			return res
		}
	}
	setupS := time.Since(start).Seconds()

	// Warm-up: plans, pools, pack scratch and the kernel crew get hot, and
	// its op rate sizes the measured phase's sample buffers.
	warm := drive(wl, time.Duration(warmupShare*cfg.Seconds*float64(time.Second)), 64, nil)
	perClient := 64
	if warm.wall > 0 {
		rate := float64(warm.completed()) / warm.wall.Seconds() / float64(wl.clients())
		perClient += int(2 * rate * cfg.Seconds)
	}

	before := snapshot(wl)
	if env.tr != nil {
		env.tr.start()
	}
	ph := drive(wl, time.Duration(cfg.Seconds*float64(time.Second)), perClient, env.tr)
	if env.tr != nil {
		env.tr.stop()
	}
	after := snapshot(wl)
	rss := peakRSSMB()

	res.Attempted, res.Failed, res.Samples = ph.attempted, ph.failed, int64(ph.completed())
	if ph.firstErr != nil {
		res.Err = "op: " + ph.firstErr.Error()
	}
	wrong, verr := wl.verify(cfg.Corrupt)
	// A wrong result is a failed op.
	res.Failed = min(res.Attempted, res.Failed+int64(wrong))
	if verr != nil {
		res.Err = "verify: " + verr.Error()
		res.Failed = max(res.Failed, 1)
	} else if wrong > 0 && res.Err == "" {
		res.Err = fmt.Sprintf("verify: %d wrong results", wrong)
	}
	if ph.completed() == 0 {
		// A slice with no completed op is a failure, not a 0.
		if res.Err == "" {
			res.Err = "no op completed"
		}
		res.Failed = max(res.Failed, 1)
		return res
	}

	ok := float64(ph.completed())
	wall := ph.wall.Seconds()
	all := ph.latencies(nil)
	classes := wl.classes()
	share := make([]float64, len(classes)) // of the completed ops, per class
	var flops float64
	for _, client := range ph.samples {
		for _, s := range client {
			flops += classes[s.class()].flops
			share[s.class()] += 1 / ok
		}
	}
	res.E2E = metrics{
		"op_ms_p50":     percentileMs(all, 0.50),
		"op_ms_p90":     percentileMs(all, 0.90),
		"op_ms_p99":     percentileMs(all, 0.99),
		"ops_per_s":     ok / wall,
		"gflops":        flops / wall / 1e9,
		"failed_pct":    100 * float64(res.Failed) / float64(res.Attempted),
		"allocs_per_op": float64(after.mallocs-before.mallocs) / ok,
		"peak_rss_mb":   rss,
		"setup_s":       setupS,
	}
	if !cfg.Trace {
		return res
	}

	// The traced slice's layer view: counters over the phase, the spans,
	// then the workload's own layer analysis.
	m := metrics{}
	res.Layer = m
	m["proc.cpu_s_per_op"] = (after.cpu - before.cpu).Seconds() / ok
	m["proc.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
	m["_op_ms_p50"] = res.E2E["op_ms_p50"]
	m["_allocs_per_op"] = res.E2E["allocs_per_op"]
	phaseCounters(m, wl, before.prog, after.prog, ph)
	spans := env.tr.recorded()
	spanMetrics(m, spans, env.tr.fullAt.Load())
	wl.layers(m, share)
	if cfg.SpanFile != "" {
		if err := writeSpans(cfg.SpanFile, cfg.Workload, spans); err != nil && res.Err == "" {
			res.Err = "span file: " + err.Error()
		}
	}
	return res
}

// phaseCounters turns the program's own counters over the measured phase
// into layer metrics.
func phaseCounters(m metrics, wl workload, before, after progCounters, ph phase) {
	ok := float64(ph.completed())
	m["universal.pool_fresh_per_op"] = float64(after.poolFresh-before.poolFresh) / ok
	m["universal.pool_live_after"] = float64(after.poolLive)
	if hits, misses := after.planHits-before.planHits, after.planMisses-before.planMisses; hits+misses > 0 {
		m["serve.plan_cache_hit_pct"] = 100 * float64(hits) / float64(hits+misses)
	}
	batches := after.batches - before.batches
	if batches == 0 {
		return
	}
	served := float64(after.served - before.served)
	m["serve.avg_batch"] = float64(after.batchedRequests-before.batchedRequests) / float64(batches)
	m["serve.activations_per_s"] = float64(batches) / ph.wall.Seconds()
	m["serve.rejected"] = float64(after.rejected - before.rejected)
	m["serve.shed"] = float64(after.shed - before.shed)
	m["serve.failed"] = float64(after.failed - before.failed)
	m["serve.expired"] = float64(after.expired - before.expired)
	m["serve.retries"] = float64(after.retries - before.retries)
	m["_serve.queue_ms_mean"] = 1e3 * (after.queueSeconds - before.queueSeconds) / served
	// Fairness: how far the most- and least-served tenants' shares of the
	// served requests lie apart, relative to an equal share.
	lo, hi := served, 0.0
	for t := range after.tenantServed {
		d := float64(after.tenantServed[t] - before.tenantServed[t])
		lo, hi = min(lo, d), max(hi, d)
	}
	m["serve.tenant_share_spread_pct"] = 100 * (hi - lo) / (served / float64(len(after.tenantServed)))
	// Per size class, where the workload has them.
	classes := wl.classes()
	for _, cl := range classes {
		m["serve.class"+cl.label+"_ms_p50"] = percentileMs(ph.latencies(func(c int) bool { return classes[c].label == cl.label }), 0.50)
	}
}
