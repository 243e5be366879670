package universal

// The closed-form estimator of §4.3: every rank's plan priced op by op
// through the SimSystem price list, with perfect overlap of communication
// and computation and no contention. It advises the stationary choice; the
// plan replay (ModelExecutor) is the scheduled estimate of the same plans.

// planCost is a plan, or one step of it, priced as its communication and
// compute totals.
type planCost struct{ comm, compute float64 }

// total is the overlapped estimate: with perfect communication/computation
// overlap a schedule runs for the larger of the two (§4.3 prices each
// output IR op as that same maximum).
func (pc planCost) total() float64 { return max(pc.comm, pc.compute) }

// estimator prices plans over one system. Its GEMM memo lives for one
// ProblemCost call: a plan's steps reuse a handful of tile shapes, so
// thousands of ranks × steps collapse to a few roofline evaluations.
type estimator struct {
	sys  SimSystem
	gemm map[[3]int]float64
}

func newEstimator(sys SimSystem) *estimator {
	return &estimator{sys: sys, gemm: make(map[[3]int]float64)}
}

func (e *estimator) gemmCost(m, n, k int) float64 {
	shape := [3]int{m, n, k}
	c, ok := e.gemm[shape]
	if !ok {
		c = e.sys.Gemm(m, n, k)
		e.gemm[shape] = c
	}
	return c
}

// step prices one step of a plan executed by rank.
func (e *estimator) step(rank int, s Step) planCost {
	var c planCost
	if s.FetchA {
		c.comm += e.sys.Fetch(s.ASrc, rank, s.ABytes)
	}
	if s.FetchB {
		c.comm += e.sys.Fetch(s.BSrc, rank, s.BBytes)
	}
	c.compute += e.gemmCost(s.Op.M.Len(), s.Op.N.Len(), s.Op.K.Len())
	switch {
	case s.Chained: // summed into the next step's partial; no accumulate of its own
	case s.CLocal:
		c.compute += e.sys.Accum(rank, rank, s.AccumBytes)
	default:
		c.comm += e.sys.Accum(rank, s.CDst, s.AccumBytes)
	}
	return c
}

// plan prices rank's whole plan.
func (e *estimator) plan(plan Plan) planCost {
	var pc planCost
	for _, s := range plan.Steps {
		sc := e.step(plan.Rank, s)
		pc.comm += sc.comm
		pc.compute += sc.compute
	}
	return pc
}

// ProblemCost prices a whole problem under a stationary strategy as the
// slowest rank's overlapped plan cost, plus the replica reduction of C when
// it is replicated.
func ProblemCost(prob Problem, stat Stationary, sys SimSystem) float64 {
	e := newEstimator(sys)
	p := prob.A.World().NumPE()
	worst := 0.0
	for rank := 0; rank < p; rank++ {
		if t := e.plan(BuildPlan(rank, prob, stat, 0)).total(); t > worst {
			worst = t
		}
	}
	if prob.C.Replication() > 1 {
		worst += reduceCost(prob, sys)
	}
	return worst
}

// reduceCost is the slowest rank's share of reduce_replicas: every rank
// outside replica 0 accumulates its owned C tiles into replica 0.
func reduceCost(prob Problem, sys SimSystem) float64 {
	p := prob.A.World().NumPE()
	worst := 0.0
	for rank := 0; rank < p; rank++ {
		if prob.C.ReplicaOf(rank) == 0 {
			continue
		}
		dst := prob.C.RankFor(prob.C.SlotOf(rank), 0)
		var t float64
		for _, idx := range prob.C.OwnedTiles(rank) {
			t += sys.Accum(rank, dst, prob.C.TileBounds(idx).Area()*4)
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// ChooseStationary evaluates all three data movement strategies with
// ProblemCost and returns the cheapest, the "straightforward to verify via
// a cost model" selection the paper describes in §4.
func ChooseStationary(prob Problem, sys SimSystem) (Stationary, float64) {
	best := StationaryC
	bestCost := ProblemCost(prob, StationaryC, sys)
	for _, s := range []Stationary{StationaryB, StationaryA} {
		if c := ProblemCost(prob, s, sys); c < bestCost {
			best, bestCost = s, c
		}
	}
	return best, bestCost
}
