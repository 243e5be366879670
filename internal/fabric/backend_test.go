package fabric_test

// Backend-facing acceptance tests for the fabric subsystem: the
// degenerate fabric must reproduce the legacy scalar-simnet predicted
// runtimes within 1e-9, an incast storm must slow down under a fat-tree
// fabric where the scalar cluster model sees nothing, and AccumulateAdd
// must switch to the §3 get+put path exactly at a node boundary.

import (
	"math"
	"testing"

	"slicing/internal/bench"
	"slicing/internal/fabric"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/simnet"
)

// driveDeterministic issues a fixed one-sided workload whose modeled
// schedule does not depend on goroutine interleaving: rank 0 issues a
// mixed program-ordered sequence (sync, async, accumulate, round trip)
// while everyone else idles, then every rank performs one barriered
// neighbour-get round (disjoint port/link sets, so charge order is
// irrelevant). Returns the world's predicted seconds.
func driveDeterministic(w rt.TimedWorld) float64 {
	const n = 1 << 14
	seg := w.AllocSymmetric(4 * n)
	p := w.NumPE()
	w.Run(func(pe rt.PE) {
		buf := make([]float32, n)
		if pe.Rank() == 0 {
			pe.Get(buf, seg, 1%p, 0)
			pe.Put(buf, seg, 2%p, n)
			pe.AccumulateAdd(buf, seg, 1%p, 2*n)
			f1 := pe.GetAsync(buf, seg, 3%p, 0)
			f2 := pe.AccumulateAddAsync(buf, seg, 2%p, n)
			f1.Wait()
			f2.Wait()
			pe.AccumulateAddGetPut(buf, seg, 1%p, 0)
			pe.GetStrided(buf[:64*64], 64, seg, 2%p, 0, 64, 64, 64)
		}
		pe.Barrier()
		pe.Get(buf, seg, (pe.Rank()+1)%p, 0)
		pe.Barrier()
	})
	return w.PredictedSeconds()
}

// TestDegenerateFabricReproducesScalarBackends pins the acceptance bar:
// for the timed backend and several scalar topologies, running over
// fabric.Degenerate(topo) predicts the same wall-clock as running over
// topo itself, within 1e-9.
func TestDegenerateFabricReproducesScalarBackends(t *testing.T) {
	dev := gpusim.PresetH100Device()
	topos := []simnet.Topology{
		simnet.PresetH100(),
		simnet.PresetPVC(),
		simnet.PresetH100Cluster(2),
	}
	backends := []struct {
		name  string
		build func(topo simnet.Topology) rt.TimedWorld
	}{
		{"gpubackend", func(topo simnet.Topology) rt.TimedWorld {
			return gpubackend.New(topo, dev).NewWorld(topo.NumPE()).(rt.TimedWorld)
		}},
	}
	for _, be := range backends {
		for _, topo := range topos {
			t.Run(be.name+"/"+topo.Name(), func(t *testing.T) {
				scalar := driveDeterministic(be.build(topo))
				routed := driveDeterministic(be.build(fabric.Degenerate(topo).Topology()))
				if scalar <= 0 {
					t.Fatal("scalar run predicted no time")
				}
				if diff := math.Abs(scalar - routed); diff > 1e-9*math.Max(1, scalar) {
					t.Fatalf("degenerate fabric diverges from scalar model: %.12g vs %.12g (diff %g)",
						scalar, routed, diff)
				}
			})
		}
	}
}

// TestIncastSlowsUnderFabricNotUnderScalar is the incast acceptance test:
// eight peers on eight different nodes push 4 MB each into distinct GPUs
// of node 0. Under the scalar cluster model every pair enjoys its private
// 50 GB/s share (distinct egress and ingress ports — full overlap); under
// a single-NIC fat-tree all eight transfers squeeze through node 0's one
// NIC downlink and serialize, so the predicted makespan must be at least
// 2× the scalar one (it is ~8× in practice).
func TestIncastSlowsUnderFabricNotUnderScalar(t *testing.T) {
	const nodes, perNode = 9, 8
	const n = 1 << 20 // 4 MB per transfer
	dev := gpusim.PresetH100Device()

	// GPU 0 of node i pushes into GPU i-1 of node 0, through the shared
	// storm driver the baseline anchor and the walkthrough also use.
	fromGPU0 := func(int) int { return 0 }
	scalar, scalarW := bench.IncastStorm(simnet.PresetH100Cluster(nodes), dev, perNode, n, fromGPU0)
	routed, fabricW := bench.IncastStorm(fabric.H100FatTree(nodes, 1, 1).Topology(), dev, perNode, n, fromGPU0)
	ratio := routed / scalar
	t.Logf("incast 8→node0: scalar %.3gs, single-NIC fabric %.3gs (%.1fx)", scalar, routed, ratio)
	if scalar <= 0 {
		t.Fatal("scalar incast predicted no time")
	}
	if ratio < 2 {
		t.Fatalf("single-NIC fabric shows only %.2fx incast slowdown, want >= 2x", ratio)
	}

	// The rail-optimized build with an oversubscribed spine: all senders
	// sit on rail 0, seven of the eight flows cross rails and share rail
	// 0's two spine uplinks, so the storm still slows ≥2× while the
	// scalar model keeps pricing it as fully parallel.
	over, _ := bench.IncastStorm(fabric.H100FatTree(nodes, 8, 4).Topology(), dev, perNode, n, fromGPU0)
	t.Logf("incast 8→node0: oversubscribed 8-rail fabric %.3gs (%.1fx)", over, over/scalar)
	if over/scalar < 2 {
		t.Fatalf("oversubscribed fat-tree shows only %.2fx incast slowdown, want >= 2x", over/scalar)
	}

	// The scalar world has no link model to report; the fabric world must
	// account every byte through node 0's NIC downlink.
	if _, ok := rt.FabricStatsOf(scalarW); ok {
		t.Fatal("scalar topology reported fabric link stats")
	}
	links, ok := rt.FabricStatsOf(fabricW)
	if !ok {
		t.Fatal("fabric world reported no link stats")
	}
	byName := map[string]rt.LinkStats{}
	for _, l := range links {
		byName[l.Link] = l
	}
	down := byName["n0.nic0.ib<"]
	if down.Bytes != 8*4*n {
		t.Fatalf("node 0 NIC downlink carried %d bytes, want %d", down.Bytes, 8*4*n)
	}
	if down.QueueDelaySeconds <= 0 {
		t.Fatal("serialized incast recorded no queue delay on the NIC downlink")
	}
}

// accumTraffic runs a single accumulate of n floats from src into dst on
// a fresh world over topo — contiguous or strided (n as a 2-row block) —
// and returns the world's traffic counters.
func accumTraffic(t *testing.T, b rt.Backend, p, src, dst, n int, strided bool) rt.Stats {
	t.Helper()
	w := b.NewWorld(p)
	seg := w.AllocSymmetric(n)
	w.Run(func(pe rt.PE) {
		if pe.Rank() != src {
			return
		}
		if strided {
			pe.AccumulateAddStrided(make([]float32, n), n/2, seg, dst, 0, n/2, 2, n/2)
		} else {
			pe.AccumulateAdd(make([]float32, n), seg, dst, 0)
		}
	})
	return w.Stats()
}

// TestAccumulateSwitchesToGetPutAtNodeBoundary pins the §3 routing rule
// on the timed backend and both multi-node topology flavours (scalar
// MultiNode and fabric fat-tree): an accumulate whose source and target
// share a node uses the atomic path (accumulate traffic only), while one
// that crosses the boundary — even between adjacent ranks 7 and 8 —
// performs the get+put round trip (get traffic appears).
func TestAccumulateSwitchesToGetPutAtNodeBoundary(t *testing.T) {
	const n = 1024
	dev := gpusim.PresetH100Device()
	topos := []simnet.Topology{
		simnet.PresetH100Cluster(2),
		fabric.H100FatTree(2, 8, 1).Topology(),
	}
	for _, topo := range topos {
		b := gpubackend.New(topo, dev)
		p := topo.NumPE()
		for _, strided := range []bool{false, true} {
			intra := accumTraffic(t, b, p, 7, 0, n, strided) // same node: ranks 0..7
			if intra.RemoteAccumBytes != 4*n || intra.RemoteGetBytes != 0 {
				t.Fatalf("%s/%s intra-node accumulate (strided=%v): stats %+v, want pure accumulate",
					b.Name(), topo.Name(), strided, intra)
			}
			cross := accumTraffic(t, b, p, 7, 8, n, strided) // ranks 7|8 straddle the boundary
			if cross.RemoteGetBytes != 4*n || cross.RemoteAccumBytes != 4*n {
				t.Fatalf("%s/%s cross-node accumulate (strided=%v): stats %+v, want get+put round trip",
					b.Name(), topo.Name(), strided, cross)
			}
		}
	}
}

// TestCrossNodeAccumulatePricedAsRoundTrip checks the timing half of the
// §3 switch on the timed backend: a cross-node AccumulateAdd (sync and
// async) costs exactly the get+put round trip, not the accumulate-kernel
// price.
func TestCrossNodeAccumulatePricedAsRoundTrip(t *testing.T) {
	const n = 1 << 16
	topo := simnet.PresetH100Cluster(2)
	dev := gpusim.PresetH100Device()
	cost := func(drive func(pe rt.PE, seg rt.SegmentID)) float64 {
		w := gpubackend.New(topo, dev).NewWorld(topo.NumPE()).(rt.TimedWorld)
		seg := w.AllocSymmetric(n)
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				drive(pe, seg)
			}
		})
		return w.PredictedSeconds()
	}
	sync := cost(func(pe rt.PE, seg rt.SegmentID) {
		pe.AccumulateAdd(make([]float32, n), seg, 8, 0)
	})
	async := cost(func(pe rt.PE, seg rt.SegmentID) {
		pe.AccumulateAddAsync(make([]float32, n), seg, 8, 0).Wait()
	})
	explicit := cost(func(pe rt.PE, seg rt.SegmentID) {
		pe.AccumulateAddGetPut(make([]float32, n), seg, 8, 0)
	})
	if math.Abs(sync-explicit) > 1e-12 || math.Abs(async-explicit) > 1e-12 {
		t.Fatalf("cross-node accumulate priced %.12g (sync) / %.12g (async), want the %.12g round trip",
			sync, async, explicit)
	}
}
