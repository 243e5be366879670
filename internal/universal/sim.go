package universal

import (
	"slicing/internal/fabric"
	"slicing/internal/gpusim"
	"slicing/internal/simnet"
)

// SimSystem bundles the interconnect and device models of one evaluation
// system (Table 2); its methods are the §4.3 op prices (simnet.System).
type SimSystem = simnet.System

// PVCSystem returns the 12-tile Intel PVC node of Table 2.
func PVCSystem() SimSystem {
	return SimSystem{Topo: simnet.PresetPVC(), Dev: gpusim.PresetPVCDevice()}
}

// H100System returns the 8-GPU Nvidia H100 node of Table 2.
func H100System() SimSystem {
	return SimSystem{Topo: simnet.PresetH100(), Dev: gpusim.PresetH100Device()}
}

// PVCFabricSystem is PVCSystem with the link-routed fabric installed:
// per-package MDFI bridges and per-tile Xe Link ports are individual
// links, so timed backends observe per-link contention (and, unlike the
// scalar model, a tile's inter-tile and Xe Link traffic no longer share
// one egress port).
func PVCFabricSystem() SimSystem {
	return SimSystem{Topo: fabric.PVCNode().Topology(), Dev: gpusim.PresetPVCDevice()}
}

// H100FabricSystem is H100System with the link-routed fabric installed:
// each GPU's NVLink port pair into the node's NVSwitch is a link.
func H100FabricSystem() SimSystem {
	return SimSystem{Topo: fabric.H100Node().Topology(), Dev: gpusim.PresetH100Device()}
}

// H100FatTreeSystem is a cluster of H100 nodes behind a rail-optimized IB
// fat-tree (see fabric.H100FatTree): nodes×8 PEs, railsPerNode NICs per
// node, leaf→spine uplinks oversubscribed by oversub. Timed backends over
// this system congest on individual NICs, rails, and spine uplinks, and
// route cross-node accumulates through the §3 get+put path.
func H100FatTreeSystem(nodes, railsPerNode int, oversub float64) SimSystem {
	return SimSystem{
		Topo: fabric.H100FatTree(nodes, railsPerNode, oversub).Topology(),
		Dev:  gpusim.PresetH100Device(),
	}
}

// SimResult reports one simulated distributed multiply.
type SimResult struct {
	// Makespan is the simulated wall-clock in seconds.
	Makespan float64
	// PercentOfPeak is 2mnk / (p · peak · makespan) · 100, the metric of
	// Figures 2-3.
	PercentOfPeak float64
	// RemoteGetBytes / RemoteAccumBytes total the one-sided traffic.
	RemoteGetBytes, RemoteAccumBytes int
	// Stationary is the resolved data movement strategy.
	Stationary Stationary
	// Ops is the total number of local GEMM operations executed.
	Ops int
	// AvgComputeUtil is the mean per-PE compute engine utilization.
	AvgComputeUtil float64
	// QueueDelaySeconds and AccumInterferenceSeconds carry the stream-level
	// delay signals when the run came from the timed backend
	// (bench.RunUATimed); zero elsewhere.
	QueueDelaySeconds        float64
	AccumInterferenceSeconds float64
}

// SimulateMultiply runs the universal algorithm's direct execution (§4.2)
// through the discrete-event performance model instead of real arithmetic:
// the same per-rank plans (iteration offset, tile cache, prefetch depth,
// bounded GEMM/accumulate concurrency) drive a schedule over compute
// engines and the network, reproducing the overlap behaviour that
// determines percent-of-peak in Figures 2-3. It is ModelExecutor.Simulate
// over freshly compiled plans; SimulateCompiledTrace also returns the
// engine and schedule.
func SimulateMultiply(prob Problem, cfg Config, sys SimSystem) SimResult {
	return NewModelExecutor().Simulate(prob, CompilePlans(prob, cfg), cfg, sys)
}

// simBuilder maps the estimator's transfers onto engine resources the same
// way the timed backends do: on a scalar topology a src→dst transfer
// occupies the source's egress port and the destination's ingress port; on
// a link-routed topology (simnet.Routed) it occupies every link of the
// static src→dst route, so transfers that share a NIC, a rail, or a spine
// uplink contend even when their endpoints differ. Across a node boundary
// (SimSystem.CrossNode) accumulates decompose into the §3 get+put round
// trip — two chained transfers, each claiming its own route — as in the
// timed backend. Every duration is a SimSystem price.
type simBuilder struct {
	eng     *gpusim.Engine
	sys     SimSystem
	compute []gpusim.ResourceID
	// Scalar port model (routed == nil).
	egress, ingress []gpusim.ResourceID
	// Link-routed model.
	routed  simnet.Routed
	linkRes []gpusim.ResourceID

	scratch []gpusim.ResourceID // reused per-op resource list (AddOp copies)
	getDep  [1]gpusim.OpID      // reused dep list for the §3 put-after-get edge
}

// reset rebinds the builder to an engine/system pair and registers the
// system's resources, reusing the builder's slices so a long-lived builder
// (ModelExecutor) re-registers each sweep point's resources without
// allocating once capacities have grown to the largest point seen.
func (b *simBuilder) reset(eng *gpusim.Engine, sys SimSystem, p int) {
	b.eng, b.sys = eng, sys
	b.routed, _ = sys.Topo.(simnet.Routed)
	b.compute = b.compute[:0]
	b.egress = b.egress[:0]
	b.ingress = b.ingress[:0]
	b.linkRes = b.linkRes[:0]
	for pe := 0; pe < p; pe++ {
		b.compute = append(b.compute, eng.AddResource("compute"))
		if b.routed == nil {
			b.egress = append(b.egress, eng.AddResource("egress"))
			b.ingress = append(b.ingress, eng.AddResource("ingress"))
		}
	}
	if b.routed != nil {
		for li := 0; li < b.routed.NumLinks(); li++ {
			b.linkRes = append(b.linkRes, eng.AddResource(b.routed.LinkName(li)))
		}
	}
}

// netRes returns the engine resources a src→dst transfer occupies. The
// returned slice is the builder's scratch, valid until the next call
// (AddOp copies it into the engine's CSR storage).
func (b *simBuilder) netRes(src, dst int) []gpusim.ResourceID {
	b.scratch = b.scratch[:0]
	if src == dst {
		return b.scratch // device-local copies use no network
	}
	if b.routed == nil {
		b.scratch = append(b.scratch, b.egress[src], b.ingress[dst])
		return b.scratch
	}
	for _, li := range b.routed.RouteIDs(src, dst) {
		b.scratch = append(b.scratch, b.linkRes[li])
	}
	return b.scratch
}

// addAccum appends the engine ops for an accumulate of bytes from rank
// into dst's memory, gated on deps, and returns the op that completes it.
// Within a node it is a single accumulate at the measured fraction of copy
// bandwidth (claiming the initiator's compute engine too on devices that
// model accumulate/GEMM interference — gpubackend claims the target's, a
// recorded difference: docs/ARCHITECTURE.md, "Execution estimators");
// across nodes it is the §3 get+put
// round trip, the put gated on the get as the coarse lock requires. The
// cross-node labels are passed in pre-concatenated ("accum_get", ...) so
// the hot replay path builds no strings.
func (b *simBuilder) addAccum(label, getLabel, putLabel string, rank, dst, bytes int, deps []gpusim.OpID) gpusim.OpID {
	if b.sys.CrossNode(rank, dst) {
		get := b.eng.AddOp(getLabel, gpusim.OpAccum, b.sys.Fetch(dst, rank, bytes),
			deps, b.netRes(dst, rank))
		b.getDep[0] = get
		return b.eng.AddOp(putLabel, gpusim.OpAccum, b.sys.Fetch(rank, dst, bytes),
			b.getDep[:], b.netRes(rank, dst))
	}
	res := b.netRes(rank, dst)
	if b.sys.Dev.AccumComputeInterference {
		res = append(res, b.compute[rank])
	}
	return b.eng.AddOp(label, gpusim.OpAccum, b.sys.Accum(rank, dst, bytes), deps, res)
}

// planReplayer maps per-rank plans onto a discrete-event DAG and runs it.
// It is the one replay implementation, behind ModelExecutor and so behind
// SimulateMultiply and SimulateCompiledTrace.
//
// All scratch lives on the replayer and is grown once, so a reused
// replayer performs zero steady-state allocations per replay.
type planReplayer struct {
	b simBuilder

	// Per-rank step scratch. fetchA/fetchB replace the old per-step fetch
	// slice-of-slices: a step issues at most one A fetch and one B fetch,
	// always in that order, so two flat arrays with a -1 sentinel carry the
	// same information without per-step allocations.
	gemmIDs  []gpusim.OpID
	chainEnd []gpusim.OpID // gemm or accum, whichever finishes the chain
	fetchA   []gpusim.OpID
	fetchB   []gpusim.OpID

	lastOpPerRank []gpusim.OpID
	deps          []gpusim.OpID // reused dependency scratch (AddOp copies)
}

// growOps reslices s to length n, reallocating only when capacity is
// insufficient; contents are not preserved.
func growOps(s []gpusim.OpID, n int) []gpusim.OpID {
	if cap(s) < n {
		return make([]gpusim.OpID, n)
	}
	return s[:n]
}

// addFetch issues the fetch for step i of rank's plan. Fetches are issued
// in program order with a lookahead window of PrefetchDepth: the fetch for
// step i may not start before the GEMM of step i-1-PrefetchDepth has been
// issued (§4.2 prefetches the next two tiles while computing the current
// one).
func (r *planReplayer) addFetch(cfg Config, rank, i, src, bytes int) gpusim.OpID {
	r.deps = r.deps[:0]
	if gate := i - 1 - cfg.PrefetchDepth; gate >= 0 {
		r.deps = append(r.deps, r.gemmIDs[gate])
	}
	return r.b.eng.AddOp("get", gpusim.OpComm, r.b.sys.Fetch(src, rank, bytes),
		r.deps, r.b.netRes(src, rank))
}

// replay builds the engine DAG for plans over sys, runs it, and summarizes.
// cfg must already have defaults applied; the engine must be empty (fresh
// or Reset). plans must hold exactly sys.Topo.NumPE() rank plans.
func (r *planReplayer) replay(prob Problem, cfg Config, sys SimSystem, plans []Plan, eng *gpusim.Engine) (SimResult, gpusim.Result) {
	p := len(plans)
	r.b.reset(eng, sys, p)

	result := SimResult{}
	r.lastOpPerRank = r.lastOpPerRank[:0]
	var resolved Stationary
	// Plans repeat a few tile shapes in long runs, so a GEMM is priced
	// only when its shape differs from the previous step's.
	gm, gn, gk, gemmT := -1, -1, -1, 0.0

	for rank := 0; rank < p; rank++ {
		plan := &plans[rank]
		resolved = plan.Stationary
		result.Ops += len(plan.Steps)
		result.RemoteGetBytes += plan.RemoteFetchBytes()
		result.RemoteAccumBytes += plan.RemoteAccumBytes()

		n := len(plan.Steps)
		r.gemmIDs = growOps(r.gemmIDs, n)
		r.chainEnd = growOps(r.chainEnd, n)
		r.fetchA = growOps(r.fetchA, n)
		r.fetchB = growOps(r.fetchB, n)

		for i, s := range plan.Steps {
			r.fetchA[i], r.fetchB[i] = -1, -1
			if s.FetchA {
				r.fetchA[i] = r.addFetch(cfg, rank, i, s.ASrc, s.ABytes)
			}
			if s.FetchB {
				r.fetchB[i] = r.addFetch(cfg, rank, i, s.BSrc, s.BBytes)
			}
			r.deps = r.deps[:0]
			if r.fetchA[i] >= 0 {
				r.deps = append(r.deps, r.fetchA[i])
			}
			if r.fetchB[i] >= 0 {
				r.deps = append(r.deps, r.fetchB[i])
			}
			// Tile-cache hits must still wait for the step that fetched the
			// tile; the engine's per-resource serialization of fetches on
			// rank's ingress side plus program order makes that fetch precede
			// this GEMM's other dependencies in practice, so an explicit edge
			// to the earlier fetch is redundant for timing.
			// Bounded chain concurrency: the semaphore of §4.2.
			if gate := i - cfg.MaxInflight; gate >= 0 {
				r.deps = append(r.deps, r.chainEnd[gate])
			}
			if m, n, k := s.Op.M.Len(), s.Op.N.Len(), s.Op.K.Len(); m != gm || n != gn || k != gk {
				gm, gn, gk, gemmT = m, n, k, sys.Gemm(m, n, k)
			}
			r.gemmIDs[i] = eng.AddOp("gemm", gpusim.OpCompute, gemmT, r.deps, r.b.compute[rank:rank+1])
			r.chainEnd[i] = r.gemmIDs[i]

			// One accumulate per chain, after its last GEMM: a chained step
			// ends at its GEMM, and the GEMMs of one rank serialize on its
			// compute resource, so the last one implies the others.
			if s.AccumBytes > 0 && !s.Chained {
				r.deps = append(r.deps[:0], r.gemmIDs[i])
				if s.CLocal {
					// Local accumulate: read-modify-write in HBM.
					r.chainEnd[i] = eng.AddOp("accum", gpusim.OpAccum, sys.Accum(rank, rank, s.AccumBytes), r.deps, nil)
				} else {
					r.chainEnd[i] = r.b.addAccum("accum", "accum_get", "accum_put", rank, s.CDst, s.AccumBytes, r.deps)
				}
			}
		}
		if n > 0 {
			r.lastOpPerRank = append(r.lastOpPerRank, r.chainEnd[n-1])
		}
	}

	// reduce_replicas for a replicated C: after a barrier (modelled as a
	// dependency on every rank's last chain), each rank outside replica 0
	// accumulates its owned C tiles into replica 0.
	if prob.C.Replication() > 1 {
		for rank := 0; rank < p; rank++ {
			if prob.C.ReplicaOf(rank) == 0 {
				continue
			}
			dst := prob.C.RankFor(prob.C.SlotOf(rank), 0)
			for _, idx := range prob.C.OwnedTiles(rank) {
				bytes := prob.C.TileBounds(idx).Area() * 4
				r.b.addAccum("reduce", "reduce_get", "reduce_put", rank, dst, bytes, r.lastOpPerRank)
				result.RemoteAccumBytes += bytes
			}
		}
	}

	run := eng.Run()
	result.Makespan = run.Makespan
	result.Stationary = resolved
	m, n, k := prob.Dims()
	if run.Makespan > 0 {
		flops := 2 * float64(m) * float64(n) * float64(k)
		result.PercentOfPeak = flops / (float64(p) * sys.Dev.PeakFlops * run.Makespan) * 100
	}
	var util float64
	for pe := 0; pe < p; pe++ {
		util += run.Utilization(r.b.compute[pe])
	}
	result.AvgComputeUtil = util / float64(p)
	return result, run
}
