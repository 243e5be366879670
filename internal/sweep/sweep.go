// Package sweep is the cluster-sweep subsystem: it evaluates the
// universal algorithm over a declarative grid of H100 fat-tree clusters —
// node counts, rail counts, leaf→spine oversubscription, and degraded
// rails, the axes of the paper's Figures 2-3 — entirely through the
// model-only execution mode. Every grid point autotunes its partitioning,
// compiles (or re-uses) a cached plan, and replays it through
// universal.ModelExecutor over the point's fabric, so a sweep across
// thousands of PEs runs in seconds with no tile allocation and no real
// arithmetic. Results are frozen into a schema-versioned, machine-readable
// Artifact (SWEEP_*.json) that internal/trace renders as a summary table.
//
// The design follows the "precompute so the inner loop is milliseconds"
// discipline: plan compilation is the expensive step, and PlanKey excludes
// topology, so every fabric variant at a fixed (world size, shapes,
// partitioning, replication, stationary) shares one CompiledPlan through
// the PlanCache — rails, oversubscription, and degradation then reprice
// the same schedule instead of recompiling it.
package sweep

import (
	"fmt"
	"sync"

	"slicing/internal/autotune"
	"slicing/internal/bench"
	"slicing/internal/chaos"
	"slicing/internal/fabric"
	"slicing/internal/gpusim"
	"slicing/internal/modelworld"
	rt "slicing/internal/runtime"
	"slicing/internal/universal"
)

// DegradedRailName is the rail NIC a degraded sweep column downtrains
// (both directions): node 0's first InfiniBand port pair.
const DegradedRailName = "n0.nic0.ib"

// Spec declares a sweep: the problem (one MLP layer at one batch size) and
// the cluster grid. The grid is the cross product NodeCounts × RailCounts
// × Oversubs × DegradeFactors, minus combinations the fat-tree preset
// rejects (a single-rail node has no spine to oversubscribe), expanded in
// that nesting order — deterministically, which is what makes two runs of
// one spec byte-identical.
type Spec struct {
	// Name labels the sweep in the artifact ("figure2-mlp1" style).
	Name string
	// Layer and Batch pick the GEMM shape via bench.Layer.Dims.
	Layer bench.Layer
	// Batch is the global batch size (rows of A); 0 means the largest
	// paper batch, 8192.
	Batch int
	// NodeCounts are the cluster sizes to sweep (8 PEs per node); each
	// must be ≥ 2.
	NodeCounts []int
	// RailCounts are NICs per node; each must divide 8.
	RailCounts []int
	// Oversubs are leaf→spine oversubscription ratios (≥ 1).
	Oversubs []float64
	// DegradeFactors multiply DegradedRailName's bandwidth per column;
	// 1 is the healthy fabric, values in (0, 1) add a degraded-rail
	// column to the figure.
	DegradeFactors []float64
	// CrashCounts, when non-empty, adds the availability axis: each count
	// crashes that many ranks — picked deterministically from (Seed, point
	// index) via chaos.PickRanks — and re-prices the point's plan with the
	// crashed ranks excluded (universal.Config.Exclude), the survivors
	// having adopted their work. The point then carries availability
	// (healthy-vs-degraded makespan ratio) and degradation fields. Counts
	// must lie in [0, PEs); 0 is the explicit 100%-availability baseline.
	// Nil keeps the classic grid and artifact byte-layout unchanged.
	CrashCounts []int
	// Autotune bounds the per-point search. Partitionings nil searches
	// every family (expensive at cluster scale); Replications nil every
	// divisor of p. MemBudgetElems 0 is unlimited. SimulateTop re-ranks
	// that many cost-model leaders with the discrete-event simulator.
	Partitionings  []bench.Partitioning
	Replications   []int
	MemBudgetElems float64
	SimulateTop    int
	// Seed identifies the run for reproducibility checks; the sweep is
	// fully deterministic, so equal (Spec, Seed) must produce
	// byte-identical artifacts.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "cluster-sweep"
	}
	if s.Batch == 0 {
		s.Batch = bench.Batches[len(bench.Batches)-1]
	}
	if s.NodeCounts == nil {
		s.NodeCounts = []int{2, 8, 32, 128}
	}
	if s.RailCounts == nil {
		s.RailCounts = []int{1, 4, 8}
	}
	if s.Oversubs == nil {
		s.Oversubs = []float64{1, 2}
	}
	if s.DegradeFactors == nil {
		s.DegradeFactors = []float64{1, 0.5}
	}
	if s.Partitionings == nil {
		// The figure's contenders: 2D block and the outer-product layout.
		// A full six-family search at thousands of PEs belongs to offline
		// autotuning, not a sweep's inner loop.
		s.Partitionings = []bench.Partitioning{bench.PartBlock, bench.PartOuterProd}
	}
	if s.Replications == nil {
		s.Replications = []int{1, 2}
	}
	return s
}

// PointSpec is one expanded grid point. Crashes is the availability
// axis: -1 when the axis is absent (classic sweeps), otherwise the
// number of ranks to crash at this point.
type PointSpec struct {
	Nodes   int
	Rails   int
	Oversub float64
	Degrade float64
	Crashes int
}

// valid reports whether the fat-tree preset accepts the combination.
func (ps PointSpec) valid() bool {
	return ps.Nodes >= 2 && ps.Rails >= 1 && ps.Rails <= 8 && 8%ps.Rails == 0 &&
		ps.Oversub >= 1 && !(ps.Rails == 1 && ps.Oversub != 1) &&
		ps.Degrade > 0 && ps.Degrade <= 1 &&
		ps.Crashes >= -1 && ps.Crashes < 8*ps.Nodes
}

// Points expands the spec's grid in deterministic nesting order
// (nodes, rails, oversub, degrade, crashes), skipping invalid
// combinations. Without CrashCounts the crash axis collapses to the
// -1 sentinel, leaving classic expansions unchanged.
func (s Spec) Points() []PointSpec {
	s = s.withDefaults()
	crashes := s.CrashCounts
	if len(crashes) == 0 {
		crashes = []int{-1}
	}
	var out []PointSpec
	for _, nodes := range s.NodeCounts {
		for _, rails := range s.RailCounts {
			for _, ov := range s.Oversubs {
				for _, dg := range s.DegradeFactors {
					for _, cr := range crashes {
						ps := PointSpec{Nodes: nodes, Rails: rails, Oversub: ov, Degrade: dg, Crashes: cr}
						if ps.valid() {
							out = append(out, ps)
						}
					}
				}
			}
		}
	}
	return out
}

// Point is one evaluated grid point of the artifact.
type Point struct {
	Nodes   int     `json:"nodes"`
	PEs     int     `json:"pes"`
	Rails   int     `json:"rails"`
	Oversub float64 `json:"oversub"`
	// DegradedRail names the downtrained rail ("" for the healthy
	// column); DegradeFactor is the bandwidth multiplier applied to it.
	DegradedRail  string  `json:"degraded_rail,omitempty"`
	DegradeFactor float64 `json:"degrade_factor"`

	// The autotuned configuration.
	Partitioning string  `json:"partitioning"`
	ReplAB       int     `json:"repl_ab"`
	ReplC        int     `json:"repl_c"`
	Stationary   string  `json:"stationary"`
	CostSeconds  float64 `json:"cost_seconds"`

	// The model-only execution's prediction.
	MakespanSeconds  float64 `json:"makespan_seconds"`
	PercentOfPeak    float64 `json:"percent_of_peak"`
	RemoteGetBytes   int     `json:"remote_get_bytes"`
	RemoteAccumBytes int     `json:"remote_accum_bytes"`
	AvgComputeUtil   float64 `json:"avg_compute_util"`
	Ops              int     `json:"ops"`

	// The availability axis (Spec.CrashCounts), absent — and omitted from
	// the JSON — on classic sweeps. CrashedRanks is how many ranks this
	// point crashed; AvailabilityPct is the fraction of healthy throughput
	// the surviving ranks retain, 100·healthy/degraded makespan capped at
	// 100 (work conservation means survivors can only slow down, but the
	// cap keeps a pathologically better balance from reading as >100%
	// availability); DegradationX is the makespan stretch, floored at 1
	// symmetrically. MakespanSeconds stays the healthy baseline so the
	// classic columns remain comparable across specs.
	CrashedRanks    int     `json:"crashed_ranks,omitempty"`
	AvailabilityPct float64 `json:"availability_pct,omitempty"`
	DegradationX    float64 `json:"degradation_x,omitempty"`
}

// Run evaluates every grid point concurrently and freezes the results into
// an artifact. Points are independent — each builds its own fabric and
// model-world problem — except for the shared plan cache, whose
// single-flight compilation deduplicates the expensive slicing work across
// points that share a plan key; pass nil to use a private cache. Results
// are written slot-indexed, so the artifact's point order equals the
// spec's deterministic expansion order regardless of scheduling.
func Run(spec Spec, cache *universal.PlanCache) (*Artifact, error) {
	spec = spec.withDefaults()
	points := spec.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: spec %q expands to zero valid points", spec.Name)
	}
	if cache == nil {
		cache = universal.NewPlanCache(4 * len(points))
	}
	m, n, k := spec.Layer.Dims(spec.Batch)
	buildsBefore := cache.Stats().Builds

	// Executors are reusable but not concurrency-safe; a pool hands each
	// in-flight point one without pinning executors to pool workers.
	var executors sync.Pool
	results := make([]Point, len(points))
	rt.ForEachIndex(len(points), func(i int) {
		results[i] = evalPoint(points[i], i, spec, m, n, k, cache, &executors)
	})

	art := &Artifact{
		Schema: ArtifactSchema,
		Name:   spec.Name,
		Seed:   spec.Seed,
		Layer:  spec.Layer.String(),
		Batch:  spec.Batch,
		M:      m, N: n, K: k,
		Points: results,
		// Builds is the number of distinct plans compiled for this sweep —
		// a deterministic measure of how much work the cache deduplicated
		// (hit/coalesced splits depend on scheduling; builds do not).
		PlanBuilds: cache.Stats().Builds - buildsBefore,
	}
	if err := Validate(art); err != nil {
		return nil, err
	}
	return art, nil
}

// evalPoint prices one grid point: build the fabric, autotune the layout,
// compile or fetch the plan, and replay it through the model executor.
// idx is the point's position in the deterministic expansion order; it
// salts the crash picker so different grid points crash different rank
// sets under one seed.
func evalPoint(ps PointSpec, idx int, spec Spec, m, n, k int, cache *universal.PlanCache, executors *sync.Pool) Point {
	fab := fabric.H100FatTree(ps.Nodes, ps.Rails, ps.Oversub)
	degraded := ""
	if ps.Degrade < 1 {
		fab.DegradeAt(fab.LinkID(DegradedRailName+">"), ps.Degrade)
		fab.DegradeAt(fab.LinkID(DegradedRailName+"<"), ps.Degrade)
		degraded = DegradedRailName
	}
	sys := universal.SimSystem{Topo: fab.Topology(), Dev: gpusim.PresetH100Device()}
	p := sys.Topo.NumPE()

	cand := autotune.Search(sys, m, n, k, autotune.Options{
		MemBudgetElems: spec.MemBudgetElems,
		SimulateTop:    spec.SimulateTop,
		Partitionings:  spec.Partitionings,
		Replications:   spec.Replications,
	})[0]

	w := modelworld.NewWorld(p)
	a, b, c := cand.Instantiate(w, m, n, k)
	prob := universal.NewProblem(c, a, b)
	cfg := cand.Config()
	cp := cache.GetOrCompile(prob, cfg)

	x, _ := executors.Get().(*universal.ModelExecutor)
	if x == nil {
		x = universal.NewModelExecutor()
	}
	res := x.Simulate(prob, cp, cfg, sys)

	pt := Point{
		Nodes: ps.Nodes, PEs: p, Rails: ps.Rails, Oversub: ps.Oversub,
		DegradedRail: degraded, DegradeFactor: ps.Degrade,
		Partitioning: cand.Part.String(), ReplAB: cand.ReplAB, ReplC: cand.ReplC,
		Stationary: res.Stationary.String(), CostSeconds: cand.CostSeconds,
		MakespanSeconds: res.Makespan, PercentOfPeak: res.PercentOfPeak,
		RemoteGetBytes: res.RemoteGetBytes, RemoteAccumBytes: res.RemoteAccumBytes,
		AvgComputeUtil: res.AvgComputeUtil, Ops: res.Ops,
	}
	if ps.Crashes >= 0 {
		pt.CrashedRanks = ps.Crashes
		pt.AvailabilityPct, pt.DegradationX = 100, 1
		if ps.Crashes > 0 {
			// Re-price the same schedule with the crashed ranks excluded:
			// the exclusion set is part of the plan key, so the repair plan
			// is an ordinary cache entry shared across points that agree on
			// everything including which ranks died.
			cfgx := cfg
			cfgx.Exclude = chaos.PickRanks(spec.Seed, uint64(idx), ps.Crashes, p)
			cpx := cache.GetOrCompile(prob, cfgx)
			resx := x.Simulate(prob, cpx, cfgx, sys)
			if resx.Makespan > res.Makespan {
				pt.AvailabilityPct = 100 * res.Makespan / resx.Makespan
				pt.DegradationX = resx.Makespan / res.Makespan
			}
		}
	}
	executors.Put(x)
	return pt
}
