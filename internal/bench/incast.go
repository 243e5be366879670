package bench

import (
	"fmt"

	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/simnet"
)

// IncastStorm prices the canonical incast scenario on a timed world over
// topo: one sender GPU per node pushes elems float32 into a
// distinct GPU of node 0. Node i (1 ≤ i ≤ sending nodes) sends from its
// GPU senderGPU(i) to GPU i-1 of node 0, at offset 0 of the target's
// segment, so the symmetric heap stays one transfer wide per PE.
//
// This single driver backs the acceptance test
// (internal/fabric/backend_test.go) and the examples/fabric_incast
// walkthrough, so the two always measure the same storm. On a scalar
// cluster topology every flow has distinct endpoints and runs in parallel;
// on a routed fabric the flows contend on whatever links their routes
// share (a single-NIC node's downlink, an oversubscribed spine uplink).
//
// The world is returned alongside the predicted seconds so callers can
// read runtime.FabricStatsOf for per-link accounting. The number of
// sending nodes is topo's node count minus one and may not exceed
// perNode, since each flow needs a distinct destination GPU on node 0.
func IncastStorm(topo simnet.Topology, dev gpusim.Device, perNode, elems int, senderGPU func(node int) int) (float64, rt.World) {
	p := topo.NumPE()
	senders := p/perNode - 1
	if p%perNode != 0 || senders < 1 || senders > perNode {
		panic(fmt.Sprintf("bench: incast needs 2..%d nodes of %d PEs, topology has %d PEs", perNode+1, perNode, p))
	}
	w := gpubackend.New(topo, dev).NewWorld(p).(*gpubackend.World)
	seg := w.AllocSymmetric(elems)
	w.Run(func(pe rt.PE) {
		node := pe.Rank() / perNode
		if node >= 1 && pe.Rank()%perNode == senderGPU(node) {
			pe.Put(make([]float32, elems), seg, node-1, 0)
		}
	})
	return w.PredictedSeconds(), w
}
