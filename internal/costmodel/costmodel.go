// Package costmodel implements the cost model of §4.3: a Roofline estimate
// for local GEMMs (based on the device's arithmetic peak and memory
// bandwidth) and a bandwidth-based estimate for communication (bytes
// divided by the link bandwidth between the process and the remote tile,
// which differs across network topology). The model prices whole execution
// plans, advises the stationary-matrix choice, and scores candidate IR
// schedules for the lowering strategies in package ir.
package costmodel

import (
	"slicing/internal/gpusim"
	"slicing/internal/simnet"
	"slicing/internal/universal"
)

// Model prices operations for one evaluation system.
type Model struct {
	Topo simnet.Topology
	Dev  gpusim.Device

	// gemmMemo, when non-nil (see Memoize), caches GemmCost by shape.
	gemmMemo map[gemmShape]float64
}

type gemmShape struct{ m, n, k int }

// New returns a cost model over the given system.
func New(topo simnet.Topology, dev gpusim.Device) *Model {
	return &Model{Topo: topo, Dev: dev}
}

// Memoize caches GemmCost results by shape and returns the model. A plan's
// steps reuse a handful of tile shapes, so pricing thousands of ranks ×
// steps during an autotune search collapses to a few Roofline evaluations.
// The cache is not synchronized: a memoized model must stay on a single
// goroutine. autotune.Search prices candidates concurrently and so builds
// one memoized model per candidate spec; the timed backends share one Model
// across concurrent PEs and therefore must not call this.
func (md *Model) Memoize() *Model {
	md.gemmMemo = make(map[gemmShape]float64)
	return md
}

// GemmCost returns the Roofline-estimated seconds for a local m×n×k GEMM.
func (md *Model) GemmCost(m, n, k int) float64 {
	if md.gemmMemo != nil {
		s := gemmShape{m, n, k}
		c, ok := md.gemmMemo[s]
		if !ok {
			c = md.Dev.GemmTime(m, n, k) + md.Dev.LaunchOverhead
			md.gemmMemo[s] = c
		}
		return c
	}
	return md.Dev.GemmTime(m, n, k) + md.Dev.LaunchOverhead
}

// FetchCost returns the seconds to copy bytes from src to dst.
func (md *Model) FetchCost(src, dst, bytes int) float64 {
	if src == dst {
		return float64(bytes) / md.Dev.MemBW
	}
	return simnet.TransferTime(md.Topo, src, dst, float64(bytes)) + md.Dev.LaunchOverhead
}

// AccumCost returns the seconds for an accumulate of bytes from rank into
// dst's memory, at the measured fraction of copy bandwidth. Across a node
// boundary (simnet.NodeMapper topologies) the accumulate is the §3
// get+put round trip — two full transfers — matching what the timed
// backends charge, so plan estimates and timed runs price the inter-node
// regime identically.
func (md *Model) AccumCost(rank, dst, bytes int) float64 {
	if rank == dst {
		return 2*float64(bytes)/md.Dev.MemBW + md.Dev.LaunchOverhead
	}
	if nm, ok := md.Topo.(simnet.NodeMapper); ok && nm.NodeOf(rank) != nm.NodeOf(dst) {
		return md.FetchCost(dst, rank, bytes) + md.FetchCost(rank, dst, bytes)
	}
	bw := md.Topo.Bandwidth(rank, dst)
	return md.Dev.AccumTime(float64(bytes), bw) + md.Topo.Latency(rank, dst) + md.Dev.LaunchOverhead
}

// StepCost breaks one plan step into its communication and compute parts.
type StepCost struct {
	Comm, Compute float64
}

// StepCost prices one step of a plan executed by rank.
func (md *Model) StepCost(rank int, s universal.Step) StepCost {
	var c StepCost
	if s.FetchA {
		c.Comm += md.FetchCost(s.ASrc, rank, s.ABytes)
	}
	if s.FetchB {
		c.Comm += md.FetchCost(s.BSrc, rank, s.BBytes)
	}
	op := s.Op
	c.Compute += md.GemmCost(op.M.Len(), op.N.Len(), op.K.Len())
	switch {
	case s.Chained: // summed into the next step's partial; no accumulate of its own
	case s.CLocal:
		c.Compute += md.AccumCost(rank, rank, s.AccumBytes)
	default:
		c.Comm += md.AccumCost(rank, s.CDst, s.AccumBytes)
	}
	return c
}

// PlanCost is the overlapped-execution estimate for a whole plan: with
// perfect communication/computation overlap the runtime of a schedule is
// the maximum of its total communication time and total computation time
// (§4.3 prices each output IR op as that same maximum).
type PlanCost struct {
	Comm, Compute float64
}

// Total returns the overlapped runtime estimate.
func (pc PlanCost) Total() float64 {
	if pc.Comm > pc.Compute {
		return pc.Comm
	}
	return pc.Compute
}

// Serial returns the no-overlap estimate (communication plus computation).
func (pc PlanCost) Serial() float64 { return pc.Comm + pc.Compute }

// PlanCost prices rank's whole plan.
func (md *Model) PlanCost(plan universal.Plan) PlanCost {
	var pc PlanCost
	for _, s := range plan.Steps {
		sc := md.StepCost(plan.Rank, s)
		pc.Comm += sc.Comm
		pc.Compute += sc.Compute
	}
	return pc
}

// ProblemCost prices a whole problem under a stationary strategy as the
// slowest rank's overlapped plan cost, plus the replica reduction of C when
// it is replicated.
func (md *Model) ProblemCost(prob universal.Problem, stat universal.Stationary) float64 {
	p := prob.A.World().NumPE()
	worst := 0.0
	for rank := 0; rank < p; rank++ {
		plan := universal.BuildPlan(rank, prob, stat, 0)
		if t := md.PlanCost(plan).Total(); t > worst {
			worst = t
		}
	}
	if prob.C.Replication() > 1 {
		worst += md.reduceCost(prob)
	}
	return worst
}

func (md *Model) reduceCost(prob universal.Problem) float64 {
	p := prob.A.World().NumPE()
	worst := 0.0
	for rank := 0; rank < p; rank++ {
		if prob.C.ReplicaOf(rank) == 0 {
			continue
		}
		dst := prob.C.RankFor(prob.C.SlotOf(rank), 0)
		var t float64
		for _, idx := range prob.C.OwnedTiles(rank) {
			t += md.AccumCost(rank, dst, prob.C.TileBounds(idx).Area()*4)
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// ChooseStationary evaluates all three data movement strategies with the
// cost model and returns the cheapest, the "straightforward to verify via a
// cost model" selection the paper describes in §4.
func (md *Model) ChooseStationary(prob universal.Problem) (universal.Stationary, float64) {
	best := universal.StationaryC
	bestCost := md.ProblemCost(prob, universal.StationaryC)
	for _, s := range []universal.Stationary{universal.StationaryB, universal.StationaryA} {
		if c := md.ProblemCost(prob, s); c < bestCost {
			best, bestCost = s, c
		}
	}
	return best, bestCost
}
