package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"slicing/internal/tile"
)

const artifactSchema = "bench/v1"

// fingerprint identifies the environment a result was measured in.
// -compare refuses to mix results whose fingerprints differ in anything
// but the commit, which is what it exists to compare.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func currentFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: tile.KernelName(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// sameEnvironment reports whether two results may be compared.
func (fp fingerprint) sameEnvironment(o fingerprint) bool {
	fp.Commit, o.Commit = "", ""
	return fp == o
}

// e2eStat is one end-to-end metric of one workload: the reported value,
// which is the median across the untraced slices, with every slice's
// value kept so spread can be judged.
type e2eStat struct {
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type layerStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	Name      string               `json:"name"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	E2E       map[string]e2eStat   `json:"e2e"`
	Layer     map[string]layerStat `json:"layer,omitempty"`
	SpanFile  string               `json:"span_file,omitempty"`
}

// artifact is the bench/v1 result of one invocation.
type artifact struct {
	Schema       string           `json:"schema"`
	Seed         int64            `json:"seed"`
	Rounds       int              `json:"rounds"`
	SliceSeconds float64          `json:"slice_seconds"`
	Env          fingerprint      `json:"env"`
	Workloads    []workloadResult `json:"workloads"`
}

func (a *artifact) correct() bool {
	for _, w := range a.Workloads {
		if w.Failed > 0 || len(w.Errors) > 0 || w.Attempted == 0 {
			return false
		}
	}
	return len(a.Workloads) > 0
}

func (a *artifact) byName() map[string]workloadResult {
	m := map[string]workloadResult{}
	for _, w := range a.Workloads {
		m[w.Name] = w
	}
	return m
}

func loadArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Schema != artifactSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, a.Schema, artifactSchema)
	}
	return &a, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// collector gathers one workload's slice results.
type collector struct {
	name       string
	untraced   []sliceResult
	traced     []sliceResult
	oneProc    *sliceResult
	probe      metrics
	spanFile   string
	errs       []string
	att, fails int64
}

func (c *collector) add(res sliceResult, into *[]sliceResult) {
	c.att += res.Attempted
	c.fails += res.Failed
	if res.Err != "" {
		c.errs = append(c.errs, res.Err)
		if res.Failed == 0 {
			c.fails++
		}
		c.att = max(c.att, c.fails)
	}
	if into != nil && res.E2E != nil {
		*into = append(*into, res)
	}
}

// result reduces the collected slices to the workload's reported values:
// every metric is the median across slices.
func (c *collector) result(trace bool) workloadResult {
	out := workloadResult{Name: c.name, Attempted: c.att, Failed: c.fails, Errors: c.errs, E2E: map[string]e2eStat{}}
	for _, spec := range suiteEndToEnd {
		var vals []float64
		for _, r := range c.untraced {
			vals = append(vals, r.E2E[spec.Name])
		}
		if len(vals) == 0 {
			continue
		}
		st := e2eStat{Value: median(vals), Min: vals[0], Max: vals[0], Unit: spec.Unit, Values: vals}
		for _, v := range vals {
			st.Min, st.Max = min(st.Min, v), max(st.Max, v)
		}
		if spec.Name == "failed_pct" {
			// A median would hide a failure in a minority of the slices.
			st.Value = 100 * float64(c.fails) / float64(max(c.att, 1))
		}
		out.E2E[spec.Name] = st
	}
	if !trace {
		return out
	}

	// Layer values: median across the traced slices, the probes, then the
	// ratios that need the untraced rounds.
	m := metrics{}
	keys := map[string]bool{}
	for _, r := range c.traced {
		for k := range r.Layer {
			keys[k] = true
		}
	}
	for k := range keys {
		var vals []float64
		for _, r := range c.traced {
			if v, ok := r.Layer[k]; ok {
				vals = append(vals, v)
			}
		}
		m[k] = median(vals)
	}
	for k, v := range c.probe {
		m[k] = v
	}
	p50 := out.E2E["op_ms_p50"].Value
	if p50 > 0 {
		m["trace.overhead_pct"] = 100 * (m["_op_ms_p50"] - p50) / p50
		m["universal.dist_speedup_x"] = m["_serial_gemm_ms_per_op"] / p50
		m["tile.floor_share"] = m["_floor_ms"] / p50
		if c.oneProc != nil && c.oneProc.E2E != nil {
			m["proc.gomaxprocs1_slowdown_x"] = c.oneProc.E2E["op_ms_p50"] / p50
		}
	}
	// Both sides per op: on the serve workloads a request of each tenant's
	// shape, weighted by the shapes' shares of the traced phase.
	if steps := m["_steps_per_op"]; steps > 0 {
		m["universal.overhead_ms"] = m["universal.pe_self_ms"] - m["_replay_ms_per_op"]
		m["universal.overhead_us_per_step"] = 1e3 * m["universal.overhead_ms"] / steps
		m["universal.allocs_per_step"] = m["_allocs_per_op"] / steps
	}
	if batch := m["serve.avg_batch"]; batch > 0 {
		m["serve.per_request_us"] = 1e3 * m["_activation_ms_mean"] / batch
		m["serve.wait_ms_mean"] = m["_serve.queue_ms_mean"] - m["_activation_ms_mean"]
		if naive := m["serve.naive_rps"]; naive > 0 {
			m["serve.speedup_x"] = out.E2E["ops_per_s"].Value / naive
		}
	} else {
		// Activation statistics describe a server; on a workload without
		// one they would only repeat op latency.
		for _, k := range []string{"serve.activation_ms_p50", "serve.dispatch_gap_us_p50", "serve.world_busy_pct"} {
			delete(m, k)
		}
	}
	out.Layer = map[string]layerStat{}
	for _, spec := range perLayer {
		out.Layer[spec.Name] = layerStat{Value: m[spec.Name], Unit: spec.Unit}
	}
	out.SpanFile = c.spanFile
	return out
}

// printArtifact prints every metric by name with its unit.
func printArtifact(w io.Writer, a *artifact) {
	fmt.Fprintf(w, "%s  seed %d  rounds %d  slice %.3gs  warm-up %.3gs\n", a.Schema, a.Seed, a.Rounds, a.SliceSeconds, warmupShare*a.SliceSeconds)
	fmt.Fprintf(w, "env: %s | nproc %d | GOMAXPROCS %d | %s | kernel %s | commit %s\n",
		a.Env.CPU, a.Env.NProc, a.Env.GOMAXPROCS, a.Env.Go, a.Env.Kernel, a.Env.Commit)
	for _, wl := range a.Workloads {
		fmt.Fprintf(w, "\n== %s: %d ops attempted, %d failed\n", wl.Name, wl.Attempted, wl.Failed)
		for _, e := range wl.Errors {
			fmt.Fprintf(w, "   ERROR %s\n", e)
		}
		for _, spec := range suiteEndToEnd {
			if st, ok := wl.E2E[spec.Name]; ok {
				fmt.Fprintf(w, "   %-34s %14.6g %-8s (min %.6g, max %.6g, n=%d)\n", spec.Name, st.Value, st.Unit, st.Min, st.Max, len(st.Values))
			}
		}
		for _, spec := range perLayer {
			if st, ok := wl.Layer[spec.Name]; ok {
				fmt.Fprintf(w, "   %-34s %14.6g %s\n", spec.Name, st.Value, st.Unit)
			}
		}
	}
}
