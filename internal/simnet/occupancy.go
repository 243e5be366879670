package simnet

import (
	"fmt"

	"slicing/internal/gpusim"
)

// Occupancy maps priced ops onto the exclusive resources of a
// gpusim.Engine DAG. It is the one occupancy model: the plan replay
// (universal.ModelExecutor) and the timed backend (gpubackend) both build
// their DAGs through it, so they agree on what every op holds:
//
//   - a src→dst transfer holds src's egress and dst's ingress port on a
//     scalar topology, or every link of the static route on a link-routed
//     one (Routed), so transfers sharing a NIC, a rail or a spine uplink
//     contend even when their endpoints differ; a device-local copy holds
//     no network resource;
//   - a GEMM holds its PE's compute engine (Compute);
//   - a local accumulate is a read-modify-write kernel on its PE's compute
//     engine; an intra-node remote accumulate holds the route and, on
//     devices with Dev.AccumComputeInterference (§5.2), the target's
//     compute engine, the rule gpusim.Device states;
//   - across a node boundary (System.CrossNode) an accumulate is the §3
//     get+put round trip: two transfers, the put gated on the get, each
//     holding its own route.
//
// Durations are System prices. The builder methods take them as
// arguments, because the timed backend prices an op when it is issued (a
// link degraded later does not reprice it); Accumulate prices and routes
// for callers that build from a plan. Callers may add their own engines
// (the timed backend's copy engines) through the engine arguments.
//
// Links are registered before the per-PE resources, so when several
// resources tie as an op's binding constraint, gpusim.Engine.QueueDelay's
// lowest-ID rule charges the lowest-numbered link.
type Occupancy struct {
	// Sys is the system the engine models and Accumulate prices with.
	Sys System
	// Compute is each PE's compute engine.
	Compute []gpusim.ResourceID
	// Links is each fabric link's resource (Routed topologies only).
	Links []gpusim.ResourceID

	eng             *gpusim.Engine
	egress, ingress []gpusim.ResourceID // scalar port model (routed == nil)
	routed          Routed
	names           []string // per-PE resource names, grown once

	scratch []gpusim.ResourceID // reused per-op resource list (AddOp copies)
	getDep  [1]gpusim.OpID      // reused dep list for the §3 put-after-get edge
}

// Reset rebinds the builder to an engine/system pair and registers the
// system's resources on eng, which must be empty. A long-lived builder
// reuses its slices, so re-registering each sweep point's resources
// allocates nothing once capacities have grown to the largest point seen.
func (o *Occupancy) Reset(eng *gpusim.Engine, sys System, p int) {
	o.eng, o.Sys = eng, sys
	o.routed, _ = sys.Topo.(Routed)
	o.Compute = o.Compute[:0]
	o.egress = o.egress[:0]
	o.ingress = o.ingress[:0]
	o.Links = o.Links[:0]
	if o.routed != nil {
		for li := 0; li < o.routed.NumLinks(); li++ {
			o.Links = append(o.Links, eng.AddResource(o.routed.LinkName(li)))
		}
	}
	for pe := len(o.names) / 3; pe < p; pe++ {
		o.names = append(o.names, fmt.Sprintf("pe%d.compute", pe),
			fmt.Sprintf("pe%d.egress", pe), fmt.Sprintf("pe%d.ingress", pe))
	}
	for pe := 0; pe < p; pe++ {
		o.Compute = append(o.Compute, eng.AddResource(o.names[3*pe]))
		if o.routed == nil {
			o.egress = append(o.egress, eng.AddResource(o.names[3*pe+1]))
			o.ingress = append(o.ingress, eng.AddResource(o.names[3*pe+2]))
		}
	}
}

// netRes fills the scratch list with the network resources a src→dst
// transfer holds, followed by engine. The slice is valid until the next
// call (AddOp copies it into the engine's storage).
func (o *Occupancy) netRes(src, dst int, engine []gpusim.ResourceID) []gpusim.ResourceID {
	o.scratch = o.scratch[:0]
	switch {
	case src == dst: // device-local copies use no network
	case o.routed == nil:
		o.scratch = append(o.scratch, o.egress[src], o.ingress[dst])
	default:
		for _, li := range o.routed.RouteIDs(src, dst) {
			o.scratch = append(o.scratch, o.Links[li])
		}
	}
	o.scratch = append(o.scratch, engine...)
	return o.scratch
}

// Transfer adds a src→dst copy of duration dur, gated on deps, holding the
// route and engine (nil for none).
func (o *Occupancy) Transfer(label string, kind gpusim.OpKind, src, dst int, dur float64, deps []gpusim.OpID, engine []gpusim.ResourceID) gpusim.OpID {
	return o.eng.AddOp(label, kind, dur, deps, o.netRes(src, dst, engine))
}

// AtomicAccum adds an accumulate of duration dur from rank into dst's
// memory without the §3 decomposition: on rank's compute engine when
// dst == rank, otherwise over the route plus engine, and on interference
// devices the target's compute engine.
func (o *Occupancy) AtomicAccum(label string, rank, dst int, dur float64, deps []gpusim.OpID, engine []gpusim.ResourceID) gpusim.OpID {
	if rank == dst {
		return o.eng.AddOp(label, gpusim.OpAccum, dur, deps, o.Compute[rank:rank+1])
	}
	o.netRes(rank, dst, engine)
	if o.Sys.Dev.AccumComputeInterference {
		o.scratch = append(o.scratch, o.Compute[dst])
	}
	return o.eng.AddOp(label, gpusim.OpAccum, dur, deps, o.scratch)
}

// GetPut adds the §3 accumulate from rank into dst: a get of dst's region
// (getDur, on getEngine) and, gated on it as the coarse lock requires, a
// put of the sum (putDur, on putEngine). It returns the put.
func (o *Occupancy) GetPut(getLabel, putLabel string, rank, dst int, getDur, putDur float64, deps []gpusim.OpID, getEngine, putEngine []gpusim.ResourceID) gpusim.OpID {
	o.getDep[0] = o.eng.AddOp(getLabel, gpusim.OpAccum, getDur, deps, o.netRes(dst, rank, getEngine))
	return o.eng.AddOp(putLabel, gpusim.OpAccum, putDur, o.getDep[:], o.netRes(rank, dst, putEngine))
}

// Accumulate adds an accumulate of bytes from rank into dst's memory,
// priced by Sys: the §3 get+put round trip across a node boundary, an
// atomic accumulate otherwise. The cross-node labels are passed in
// pre-concatenated ("accum_get", ...) so a replay builds no strings.
func (o *Occupancy) Accumulate(label, getLabel, putLabel string, rank, dst, bytes int, deps []gpusim.OpID) gpusim.OpID {
	if o.Sys.CrossNode(rank, dst) {
		return o.GetPut(getLabel, putLabel, rank, dst,
			o.Sys.Fetch(dst, rank, bytes), o.Sys.Fetch(rank, dst, bytes), deps, nil, nil)
	}
	return o.AtomicAccum(label, rank, dst, o.Sys.Accum(rank, dst, bytes), deps, nil)
}
