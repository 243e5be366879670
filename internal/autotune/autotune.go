// Package autotune addresses the problem the paper explicitly defers to
// future work (§6): selecting an optimal partitioning and replication
// factor for a particular problem. In the spirit of COSMA's
// red-blue-pebbling-derived search [18], but targeting the universal
// algorithm, it enumerates candidate (partitioning triple, replication
// pair, stationary strategy) configurations under a per-PE memory budget,
// prices each with the §4.3 cost model, optionally re-ranks the leaders
// with the discrete-event simulator, and returns the best configuration
// ready to instantiate.
package autotune

import (
	"fmt"
	"math"
	"sort"

	"slicing/internal/bench"
	"slicing/internal/distmat"
	"slicing/internal/modelworld"
	rt "slicing/internal/runtime"
	"slicing/internal/universal"
)

// Candidate is one fully specified configuration.
type Candidate struct {
	Part       bench.Partitioning
	ReplAB     int
	ReplC      int
	Stationary universal.Stationary
	// CostSeconds is the cost-model estimate; SimSeconds the discrete-event
	// refinement (zero when the candidate was not simulated).
	CostSeconds float64
	SimSeconds  float64
	// MemElems is the per-PE memory footprint in elements.
	MemElems float64
}

func (c Candidate) String() string {
	return fmt.Sprintf("%v cAB=%d cC=%d %v (est %.4gs)", c.Part, c.ReplAB, c.ReplC, c.Stationary, c.CostSeconds)
}

// Options bounds the search.
type Options struct {
	// MemBudgetElems is the per-PE memory budget in float32 elements; 0
	// means unlimited.
	MemBudgetElems float64
	// SimulateTop re-ranks this many cost-model leaders with the
	// discrete-event simulator (0 disables the refinement).
	SimulateTop int
	// AllowZeroComm permits configurations that eliminate communication
	// entirely (full input replication). Off by default, matching the
	// paper's evaluation methodology (§5.2.1).
	AllowZeroComm bool
	// Partitionings restricts the enumeration to the given partitionings;
	// nil enumerates all of bench.UAPartitionings. Cluster-scale sweeps use
	// this: pricing every partitioning × divisor pair at thousands of PEs is
	// wasted work when a figure compares two or three layouts.
	Partitionings []bench.Partitioning
	// Replications restricts the replication factors considered for both
	// the input pair and C to the listed values (non-divisors of p are
	// skipped); nil enumerates every divisor of p.
	Replications []int
}

// memElems estimates a configuration's per-PE footprint: each matrix's
// elements divided by its replica's slot count.
func memElems(m, n, k, p, cAB, cC int) float64 {
	slotsAB := float64(p / cAB)
	slotsC := float64(p / cC)
	return float64(m)*float64(k)/slotsAB + float64(k)*float64(n)/slotsAB + float64(m)*float64(n)/slotsC
}

// Search enumerates configurations for an m×n×k multiply over a system
// and returns candidates sorted best-first. It never returns an empty
// slice: if the memory budget excludes everything, it panics with a
// diagnostic, since no valid configuration exists.
func Search(sys universal.SimSystem, m, n, k int, opt Options) []Candidate {
	p := sys.Topo.NumPE()
	budget := opt.MemBudgetElems
	if budget <= 0 {
		budget = math.Inf(1)
	}

	var divisors []int
	for c := 1; c <= p; c++ {
		if p%c != 0 {
			continue
		}
		if opt.Replications != nil && !containsInt(opt.Replications, c) {
			continue
		}
		divisors = append(divisors, c)
	}
	parts := opt.Partitionings
	if parts == nil {
		parts = bench.UAPartitionings
	}

	// Enumerate the (cheap) layout specs sequentially, then price them —
	// plan construction plus the §4.3 cost model, the expensive part —
	// concurrently, both stationary strategies per spec so each Problem is
	// built once and shared. Every spec owns its problem metadata, so
	// pricing shares nothing; slot-indexed writes keep the result order
	// (and therefore the sort's tie-breaking) identical to a sequential
	// sweep.
	stats := []universal.Stationary{universal.StationaryB, universal.StationaryC}
	type spec struct {
		part     bench.Partitioning
		cAB, cC  int
		mem      float64
		cands    [2]Candidate
		eligible [2]bool
	}
	var specs []spec
	for _, part := range parts {
		for _, cAB := range divisors {
			for _, cC := range divisors {
				mem := memElems(m, n, k, p, cAB, cC)
				if mem > budget {
					continue
				}
				specs = append(specs, spec{part: part, cAB: cAB, cC: cC, mem: mem})
			}
		}
	}
	rt.ForEachIndex(len(specs), func(i int) {
		sp := &specs[i]
		prob := buildProblem(sys, m, n, k, sp.part, sp.cAB, sp.cC)
		for si, stat := range stats {
			if !opt.AllowZeroComm && zeroComm(prob, stat) {
				continue
			}
			sp.cands[si] = Candidate{
				Part: sp.part, ReplAB: sp.cAB, ReplC: sp.cC, Stationary: stat,
				CostSeconds: universal.ProblemCost(prob, stat, sys), MemElems: sp.mem,
			}
			sp.eligible[si] = true
		}
	})
	out := make([]Candidate, 0, 2*len(specs))
	for i := range specs {
		for si := range stats {
			if specs[i].eligible[si] {
				out = append(out, specs[i].cands[si])
			}
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("autotune: no configuration of %d PEs fits %g elements", p, budget))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CostSeconds < out[j].CostSeconds })

	if opt.SimulateTop > 0 {
		top := opt.SimulateTop
		if top > len(out) {
			top = len(out)
		}
		// Each refinement builds and runs its own discrete-event engine, so
		// the leaders simulate concurrently; the stable re-sort on the
		// deterministic per-slot results keeps the ranking reproducible.
		rt.ForEachIndex(top, func(i int) {
			c := &out[i]
			prob := buildProblem(sys, m, n, k, c.Part, c.ReplAB, c.ReplC)
			cfg := universal.DefaultConfig()
			cfg.Stationary = c.Stationary
			c.SimSeconds = universal.SimulateMultiply(prob, cfg, sys).Makespan
		})
		sort.SliceStable(out[:top], func(i, j int) bool { return out[i].SimSeconds < out[j].SimSeconds })
	}
	return out
}

// Best returns the single best configuration.
func Best(sys universal.SimSystem, m, n, k int, opt Options) Candidate {
	return Search(sys, m, n, k, opt)[0]
}

// Instantiate allocates the candidate's three matrices over a world of the
// system's size, ready for universal.Multiply with the candidate's
// stationary strategy.
func (c Candidate) Instantiate(alloc rt.Allocator, m, n, k int) (a, b, cm *distmat.Matrix) {
	pa, pb, pc := c.Part.Parts()
	a = distmat.New(alloc, m, k, pa, c.ReplAB)
	b = distmat.New(alloc, k, n, pb, c.ReplAB)
	cm = distmat.New(alloc, m, n, pc, c.ReplC)
	return a, b, cm
}

// Config returns the execution config matching the candidate.
func (c Candidate) Config() universal.Config {
	cfg := universal.DefaultConfig()
	cfg.Stationary = c.Stationary
	cfg.SyncReplicas = true
	return cfg
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// buildProblem lays the three matrices out over a model-only world: the
// search reads nothing but metadata (shapes, ownership, replication), so
// backing the candidates with real storage — gigabytes per candidate at
// cluster scale — would be pure waste. Candidates are instantiated on a
// real backend only after selection (Candidate.Instantiate).
func buildProblem(sys universal.SimSystem, m, n, k int, part bench.Partitioning, cAB, cC int) universal.Problem {
	w := modelworld.NewWorld(sys.Topo.NumPE())
	pa, pb, pc := part.Parts()
	a := distmat.New(w, m, k, pa, cAB)
	b := distmat.New(w, k, n, pb, cAB)
	c := distmat.New(w, m, n, pc, cC)
	return universal.NewProblem(c, a, b)
}

// PipelineChoice is one (PrefetchDepth, MaxInflight) point of a pipeline
// sweep, with the modeled wall-clock the timed backend observed for it and
// the time its ops queued behind busy engines.
type PipelineChoice struct {
	PrefetchDepth     int
	MaxInflight       int
	Seconds           float64
	QueueDelaySeconds float64
}

func (pc PipelineChoice) String() string {
	return fmt.Sprintf("prefetch=%d inflight=%d (%.4gs, queue %.4gs)",
		pc.PrefetchDepth, pc.MaxInflight, pc.Seconds, pc.QueueDelaySeconds)
}

// PipelineOptions bounds a pipeline sweep; nil slices sweep {1, 2, 4, 8}.
type PipelineOptions struct {
	Depths    []int
	Inflights []int
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Depths == nil {
		o.Depths = []int{1, 2, 4, 8}
	}
	if o.Inflights == nil {
		o.Inflights = []int{1, 2, 4, 8}
	}
	return o
}

// TunePipeline sweeps the async pipeline depth — PrefetchDepth ×
// MaxInflight — for one candidate configuration by executing the multiply
// for real on the timed backend over sys and ranking the observed modeled
// wall-clocks. This is the refinement the cost model cannot provide:
// queue-depth contention on the copy engines makes the optimum
// system-dependent (a deeper pipeline that overlaps on one device's
// engines queues on another's), so the same candidate is tuned separately
// per system. Choices return sorted best-first.
func TunePipeline(sys universal.SimSystem, m, n, k int, c Candidate, opt PipelineOptions) []PipelineChoice {
	opt = opt.withDefaults()
	out := make([]PipelineChoice, len(opt.Depths)*len(opt.Inflights))
	// Every grid point executes the multiply on its own world (sys only
	// carries the immutable topology and device models), so the sweep
	// runs concurrently; slot-indexed results plus the stable final sort
	// keep the ranking deterministic.
	rt.ForEachIndex(len(out), func(i int) {
		d := opt.Depths[i/len(opt.Inflights)]
		fl := opt.Inflights[i%len(opt.Inflights)]
		cfg := c.Config()
		cfg.PrefetchDepth = d
		cfg.MaxInflight = fl
		res := bench.RunUATimed(sys, m, n, k, c.Part, c.ReplAB, c.ReplC, cfg)
		out[i] = PipelineChoice{
			PrefetchDepth:     d,
			MaxInflight:       fl,
			Seconds:           res.Makespan,
			QueueDelaySeconds: res.QueueDelaySeconds,
		}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seconds < out[j].Seconds })
	return out
}

func zeroComm(prob universal.Problem, stat universal.Stationary) bool {
	p := prob.A.World().NumPE()
	for rank := 0; rank < p; rank++ {
		plan := universal.BuildPlan(rank, prob, stat, 0)
		if plan.RemoteFetchBytes()+plan.RemoteAccumBytes() > 0 {
			return false
		}
	}
	return prob.C.Replication() == 1 // a replicated C still pays reduce_replicas
}
