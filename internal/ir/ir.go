// Package ir implements the §4.3 alternative to direct execution: lowering
// the generated local ops into an intermediate representation in which
// communication is explicit.
//
// The lowering builds a bipartite computation graph — compute operations on
// one side, matrix tiles (data) on the other — with data-dependency edges
// that start satisfied for local tiles and unsatisfied for remote ones.
// Traversing the graph produces a Program: a list of output IR ops, each
// bundling up to maxCompute compute operations whose dependencies are
// satisfied with up to maxComm communication operations that satisfy
// further dependencies for subsequent IR ops.
//
// Three generators are provided, mirroring the paper: a plain greedy
// traversal, a cost-model-guided greedy traversal, and an exhaustive search
// (over schedulable orderings, feasible for small op counts) that picks the
// cheapest program under the cost model.
//
// A Program is not executed by this package. Compile lowers it to an
// ordinary universal.CompiledPlan whose per-rank steps are the program's
// compute order — the same list of local multiplies in another order — so
// the one executor runs it and the one model replayer prices it, exactly as
// they do a directly generated plan.
package ir

import (
	"fmt"

	"slicing/internal/index"
	"slicing/internal/universal"
)

// DataKey identifies a tile node in the computation graph.
type DataKey struct {
	Mat byte // 'A' or 'B'
	Idx index.TileIdx
}

func (k DataKey) String() string { return fmt.Sprintf("%c%v", k.Mat, k.Idx) }

// Comm is one explicit communication operation: fetch a tile from a rank.
type Comm struct {
	Key   DataKey
	Src   int
	Bytes int
}

// IROp is one output IR op: a set of compute operations (indices into the
// plan's steps) overlapped with a set of communication operations. All
// computes' dependencies are satisfied when the op begins; communications
// become satisfied when the op ends.
type IROp struct {
	Computes []int
	Comms    []Comm
}

// Program is a per-rank schedule in the explicit-communication IR.
type Program struct {
	Rank string // generator name, for reporting
	PE   int
	Plan universal.Plan
	Ops  []IROp
}

// Limits bounds the concurrency within each output IR op, the
// hyperparameters of §4.3.
type Limits struct {
	MaxCompute int
	MaxComm    int
}

// DefaultLimits matches the paper's modest per-op concurrency.
func DefaultLimits() Limits { return Limits{MaxCompute: 2, MaxComm: 2} }

func (l Limits) withDefaults() Limits {
	if l.MaxCompute <= 0 {
		l.MaxCompute = 2
	}
	if l.MaxComm <= 0 {
		l.MaxComm = 2
	}
	return l
}

// graph is the bipartite computation graph for one rank's plan.
type graph struct {
	plan universal.Plan
	// deps[i] lists the data nodes compute i requires.
	deps [][]DataKey
	// comm maps each remote data node to its fetch descriptor.
	comm map[DataKey]Comm
}

// buildGraph constructs the computation graph: one compute node per step,
// one data node per distinct tile, edges labelled satisfied for local
// tiles (omitted — only unsatisfied edges are recorded).
func buildGraph(plan universal.Plan) *graph {
	g := &graph{plan: plan, comm: map[DataKey]Comm{}}
	g.deps = make([][]DataKey, len(plan.Steps))
	for i, s := range plan.Steps {
		if !s.ALocal {
			key := DataKey{'A', s.Op.AIdx}
			g.deps[i] = append(g.deps[i], key)
			if _, ok := g.comm[key]; !ok {
				g.comm[key] = Comm{Key: key, Src: s.ASrc, Bytes: s.ABytes}
			}
		}
		if !s.BLocal {
			key := DataKey{'B', s.Op.BIdx}
			g.deps[i] = append(g.deps[i], key)
			if _, ok := g.comm[key]; !ok {
				g.comm[key] = Comm{Key: key, Src: s.BSrc, Bytes: s.BBytes}
			}
		}
	}
	return g
}

// eligible reports whether compute i can run given the satisfied set.
func (g *graph) eligible(i int, satisfied map[DataKey]bool) bool {
	for _, d := range g.deps[i] {
		if !satisfied[d] {
			return false
		}
	}
	return true
}

// Greedy lowers a plan with the plain greedy traversal: each output op
// first schedules any eligible compute (in plan order), then any pending
// communication (in first-use order), both up to the limits.
func Greedy(plan universal.Plan, lim Limits) Program {
	lim = lim.withDefaults()
	g := buildGraph(plan)
	return traverse(g, lim, func(cands []int) []int { return cands }, func(cands []DataKey) []DataKey { return cands })
}

// traverse runs the generic graph traversal; pickCompute and pickComm may
// reorder candidate lists to implement scheduling policies.
func traverse(g *graph, lim Limits, pickCompute func([]int) []int, pickComm func([]DataKey) []DataKey) Program {
	n := len(g.plan.Steps)
	scheduled := make([]bool, n)
	fetched := map[DataKey]bool{}
	satisfied := map[DataKey]bool{}
	var ops []IROp
	remaining := n
	for remaining > 0 {
		var op IROp
		// Eligible computes, in plan order.
		var cands []int
		for i := 0; i < n; i++ {
			if !scheduled[i] && g.eligible(i, satisfied) {
				cands = append(cands, i)
			}
		}
		cands = pickCompute(cands)
		for _, i := range cands {
			if len(op.Computes) >= lim.MaxCompute {
				break
			}
			op.Computes = append(op.Computes, i)
			scheduled[i] = true
			remaining--
		}
		// Pending communications: unsatisfied deps of unscheduled computes,
		// in first-use order, deduplicated.
		var commCands []DataKey
		seen := map[DataKey]bool{}
		for i := 0; i < n; i++ {
			if scheduled[i] {
				continue
			}
			for _, d := range g.deps[i] {
				if !satisfied[d] && !fetched[d] && !seen[d] {
					seen[d] = true
					commCands = append(commCands, d)
				}
			}
		}
		commCands = pickComm(commCands)
		for _, d := range commCands {
			if len(op.Comms) >= lim.MaxComm {
				break
			}
			op.Comms = append(op.Comms, g.comm[d])
			fetched[d] = true
		}
		if len(op.Computes) == 0 && len(op.Comms) == 0 {
			panic("ir: traversal stalled with work remaining (graph inconsistency)")
		}
		// Communications land at the end of the op: satisfy their edges for
		// the next op.
		for _, c := range op.Comms {
			satisfied[c.Key] = true
		}
		ops = append(ops, op)
	}
	return Program{PE: g.plan.Rank, Plan: g.plan, Ops: ops}
}

// Validate checks that a program schedules every step exactly once and
// never runs a compute before its data dependencies are satisfied. It
// returns an error describing the first violation.
func (p Program) Validate() error {
	g := buildGraph(p.Plan)
	satisfied := map[DataKey]bool{}
	count := make([]int, len(p.Plan.Steps))
	for opIdx, op := range p.Ops {
		for _, i := range op.Computes {
			if i < 0 || i >= len(count) {
				return fmt.Errorf("ir: op %d references unknown step %d", opIdx, i)
			}
			count[i]++
			for _, d := range g.deps[i] {
				if !satisfied[d] {
					return fmt.Errorf("ir: op %d runs step %d before %v is satisfied", opIdx, i, d)
				}
			}
		}
		for _, c := range op.Comms {
			satisfied[c.Key] = true
		}
	}
	for i, n := range count {
		if n != 1 {
			return fmt.Errorf("ir: step %d scheduled %d times", i, n)
		}
	}
	return nil
}

// Compile lowers one program per rank to a CompiledPlan: gen is handed each
// rank's generated-order plan, its program is validated, and the
// concatenation of its IR ops' computes becomes the rank's step order
// (universal.CompileOrdered). In the generators a compute becomes eligible
// when its communications have landed, so the compute order already carries
// the communication order: the executor issues each fetch PrefetchDepth
// steps ahead of its first use in that order, with MaxInflight in the role
// of Limits.MaxCompute. An invalid program panics.
func Compile(prob universal.Problem, cfg universal.Config, gen func(universal.Plan) Program) *universal.CompiledPlan {
	return universal.CompileOrdered(prob, cfg, func(_ int, pl universal.Plan) []int {
		prog := gen(pl)
		if err := prog.Validate(); err != nil {
			panic(err)
		}
		order := make([]int, 0, len(pl.Steps))
		for _, op := range prog.Ops {
			order = append(order, op.Computes...)
		}
		return order
	})
}

// NumComms returns the total communications in the program.
func (p Program) NumComms() int {
	total := 0
	for _, op := range p.Ops {
		total += len(op.Comms)
	}
	return total
}
