// Fabric incast walkthrough: the same eight inter-node transfers are
// priced under the scalar cluster topology and under routed link-graph
// fabrics (internal/fabric), showing the regimes only the fabric can see:
//
//  1. an incast storm — eight peers on eight different nodes push into
//     node 0. The scalar model gives every pair its private share of the
//     NIC, so the storm looks free; a single-NIC fat-tree serializes all
//     eight transfers through node 0's NIC downlink (~8x slower);
//  2. spine oversubscription — rail-oblivious senders share two spine
//     uplinks (≥2x slower);
//  3. the rail-optimized fix — on an 8-rail fat-tree with rail-aligned
//     traffic the same volume rides eight disjoint rails in parallel;
//  4. a rail failure — degrading one NIC link's bandwidth stretches the
//     flows crossing it, visible in the per-link utilization lanes;
//  5. the schedule view — a small timed world over a routed fabric
//     renders engines and fabric links in one Gantt.
package main

import (
	"fmt"
	"os"

	"slicing"
	"slicing/internal/bench"
	"slicing/internal/fabric"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/simnet"
	"slicing/internal/trace"
)

const (
	nodes   = 9       // node 0 is the incast victim, nodes 1..8 send
	perNode = 8       // GPUs per node
	elems   = 1 << 20 // 4 MB per transfer
)

// incast runs the storm through the shared driver (bench.IncastStorm —
// the same scenario the acceptance test and the committed BENCH anchor
// measure): sender(i) of node i pushes 4 MB into GPU i-1 of node 0.
// senderGPU selects which GPU (= which rail, on rail-optimized fabrics)
// each node sends from.
func incast(topo simnet.Topology, senderGPU func(node int) int) (float64, slicing.World) {
	return bench.IncastStorm(topo, gpusim.PresetH100Device(), perNode, elems, senderGPU)
}

// hotLinks prints the utilization lanes of the links that carried the
// storm, sorted as reported (link order).
func hotLinks(w slicing.World, seconds float64) {
	links, ok := slicing.FabricStatsOf(w)
	if !ok {
		fmt.Println("  (scalar topology: no per-link accounting)")
		return
	}
	var busy []rt.LinkStats
	for _, l := range links {
		if l.BusySeconds >= 0.05*seconds && l.Bytes > 0 {
			busy = append(busy, l)
		}
	}
	trace.WriteLinkUtilization(os.Stdout, busy, seconds, 40)
}

func main() {
	fromGPU0 := func(int) int { return 0 }                // every node sends from GPU 0
	railAligned := func(node int) int { return node - 1 } // node i sends from GPU i-1 (rail i-1)

	fmt.Printf("incast storm: 8 nodes push 4 MB each into node 0 (%d PEs)\n\n", nodes*perNode)

	// 1. The scalar cluster model cannot see the storm: each pair gets its
	// private 50 GB/s share of the NIC.
	scalar, _ := incast(simnet.PresetH100Cluster(nodes), fromGPU0)
	fmt.Printf("%-44s %8.3f ms\n", "scalar "+simnet.PresetH100Cluster(nodes).Name(), scalar*1e3)

	// 2. A DGX-style single-NIC fat-tree serializes the storm on node 0's
	// NIC downlink.
	dgx := fabric.H100FatTree(nodes, 1, 1)
	single, w := incast(dgx.Topology(), fromGPU0)
	fmt.Printf("%-44s %8.3f ms  (%.1fx slower)\n", dgx.Name(), single*1e3, single/scalar)
	hotLinks(w, single)
	fmt.Println()

	// 3. Rail-optimized but rail-oblivious traffic: every node still sends
	// from GPU 0, so seven of the eight flows cross rails and share rail
	// 0's two oversubscribed spine uplinks.
	spine := fabric.H100FatTree(nodes, 8, 4)
	crossRail, w := incast(spine.Topology(), fromGPU0)
	fmt.Printf("%-44s %8.3f ms  (%.1fx slower: spine oversubscription)\n",
		spine.Name()+", senders on rail 0", crossRail*1e3, crossRail/scalar)
	hotLinks(w, crossRail)
	fmt.Println()

	// 4. Rail-optimized + rail-aligned traffic: eight disjoint rails carry
	// the same volume in parallel.
	rails := fabric.H100FatTree(nodes, 8, 4)
	aligned, w := incast(rails.Topology(), railAligned)
	fmt.Printf("%-44s %8.3f ms  (%.2fx vs scalar)\n", rails.Name()+", rail-aligned", aligned*1e3, aligned/scalar)
	hotLinks(w, aligned)
	fmt.Println()

	// 5. Rail failure: node 0's rail-3 NIC downlink downtrains to a
	// quarter of its bandwidth; only the flow crossing it stretches.
	broken := fabric.H100FatTree(nodes, 8, 4)
	broken.DegradeAt(broken.LinkID("n0.nic3.ib<"), 0.25)
	degraded, w := incast(broken.Topology(), railAligned)
	fmt.Printf("%-44s %8.3f ms  (rail 3 at 1/4 bandwidth)\n", broken.Name()+", degraded", degraded*1e3)
	hotLinks(w, degraded)
	fmt.Println()

	// 6. The schedule view: on a 2-PE routed fabric, the timed backend
	// schedules copy engines and fabric links on one engine; the Gantt
	// shows the link lanes alongside the device engines.
	mini := fabric.SingleSwitch(2, 50e9, 2000e9, 3e-6, "2xH100 mini fabric")
	gw := gpubackend.New(mini.Topology(), gpusim.PresetH100Device()).NewWorld(2).(*gpubackend.World)
	seg := gw.AllocSymmetric(elems)
	gw.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			f1 := pe.GetAsync(make([]float32, elems/2), seg, 1, 0)
			f2 := pe.GetAsync(make([]float32, elems/2), seg, 1, elems/2)
			pe.AccumulateAdd(make([]float32, elems/4), seg, 1, 0)
			f1.Wait()
			f2.Wait()
		}
	})
	fmt.Println("Gantt over the mini fabric (engines + per-link lanes):")
	eng, res := gw.Schedule()
	trace.WriteGantt(os.Stdout, eng, res, 72)
}
