package ir

import (
	"sort"

	"slicing/internal/universal"
)

// Cost prices a program with sys's §4.3 op prices: each output IR op costs the
// maximum of its total communication time and total computation time (§4.3
// — overlapped execution within an op), and ops run back to back. It is the
// generators' score for an order that has not been lowered yet, so it
// prices one accumulate per op: which steps chain (universal.Step.Chained)
// is decided when the order is lowered, not before.
func Cost(sys universal.SimSystem, p Program) float64 {
	var total float64
	for _, op := range p.Ops {
		var comm, compute float64
		for _, c := range op.Comms {
			comm += sys.Fetch(c.Src, p.PE, c.Bytes)
		}
		for _, i := range op.Computes {
			s := p.Plan.Steps[i]
			compute += sys.Gemm(s.Op.M.Len(), s.Op.N.Len(), s.Op.K.Len())
			if s.CLocal {
				compute += sys.Accum(p.PE, p.PE, s.AccumBytes)
			} else {
				comm += sys.Accum(p.PE, s.CDst, s.AccumBytes)
			}
		}
		if comm > compute {
			total += comm
		} else {
			total += compute
		}
	}
	return total
}

// CostGreedy lowers a plan with cost-model-guided selection: the most
// expensive eligible computes are scheduled first (so long poles overlap
// with as much communication as possible), and communications that unblock
// the most expensive pending computes are preferred.
func CostGreedy(sys universal.SimSystem, plan universal.Plan, lim Limits) Program {
	lim = lim.withDefaults()
	g := buildGraph(plan)

	stepCost := make([]float64, len(plan.Steps))
	for i, s := range plan.Steps {
		stepCost[i] = sys.Gemm(s.Op.M.Len(), s.Op.N.Len(), s.Op.K.Len())
	}
	// unblockValue[d] is the cost of the most expensive compute needing d.
	unblockValue := map[DataKey]float64{}
	for i, deps := range g.deps {
		for _, d := range deps {
			if stepCost[i] > unblockValue[d] {
				unblockValue[d] = stepCost[i]
			}
		}
	}

	prog := traverse(g, lim,
		func(cands []int) []int {
			sort.SliceStable(cands, func(a, b int) bool { return stepCost[cands[a]] > stepCost[cands[b]] })
			return cands
		},
		func(cands []DataKey) []DataKey {
			sort.SliceStable(cands, func(a, b int) bool {
				return unblockValue[cands[a]] > unblockValue[cands[b]]
			})
			return cands
		})
	prog.Rank = "cost-greedy"
	return prog
}

// ExhaustiveLimit is the largest op count Exhaustive will search; beyond
// it the search space (all orderings) is infeasible and callers should use
// CostGreedy. The paper reaches the same conclusion: after the §4.2
// optimizations, direct execution is almost always as good as the optimal
// schedule, so the exhaustive search is a verification tool for small
// problems, not a production path.
const ExhaustiveLimit = 8

// Exhaustive searches every schedulable ordering of the plan's steps (up
// to ExhaustiveLimit steps), greedily packing each ordering into IR ops and
// scoring with the cost model; it returns the cheapest program found.
func Exhaustive(sys universal.SimSystem, plan universal.Plan, lim Limits) Program {
	lim = lim.withDefaults()
	if len(plan.Steps) > ExhaustiveLimit {
		return CostGreedy(sys, plan, lim)
	}
	n := len(plan.Steps)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := Program{}
	bestCost := -1.0
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			prog := packOrdering(plan, perm, lim)
			if c := Cost(sys, prog); bestCost < 0 || c < bestCost {
				bestCost = c
				best = prog
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0)
	best.Rank = "exhaustive"
	return best
}

// packOrdering greedily packs steps in the given order into IR ops,
// inserting each step's communications in the op before its compute.
func packOrdering(plan universal.Plan, order []int, lim Limits) Program {
	g := buildGraph(plan)
	satisfied := map[DataKey]bool{}
	fetched := map[DataKey]bool{}
	var ops []IROp
	var cur IROp
	flush := func() {
		if len(cur.Computes) > 0 || len(cur.Comms) > 0 {
			for _, c := range cur.Comms {
				satisfied[c.Key] = true
			}
			ops = append(ops, cur)
			cur = IROp{}
		}
	}
	for _, i := range order {
		// Fetch missing deps first; they land at the end of the op carrying
		// them, so the compute goes into a later op.
		needed := false
		for _, d := range g.deps[i] {
			if satisfied[d] {
				continue
			}
			needed = true
			if !fetched[d] {
				if len(cur.Comms) >= lim.MaxComm {
					flush()
				}
				cur.Comms = append(cur.Comms, g.comm[d])
				fetched[d] = true
			}
		}
		if needed {
			flush()
		}
		if len(cur.Computes) >= lim.MaxCompute {
			flush()
		}
		cur.Computes = append(cur.Computes, i)
	}
	flush()
	return Program{PE: plan.Rank, Plan: plan, Ops: ops}
}
