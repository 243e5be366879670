// Package simbackend is the simnet-timed execution backend: a
// runtime.Backend that performs the same real data movement as the
// in-process shmem backend while weaving link-level timing from package
// simnet (Xe Link / NVLink topologies, per-PE egress/ingress port
// contention) and device timing from package gpusim (roofline GEMMs,
// accumulate-kernel bandwidth, launch overhead) into every operation.
//
// One run of an algorithm on this backend therefore produces both a
// numeric result — bit-for-bit the computation the shmem backend performs —
// and a modeled wall-clock for the chosen system, closing the gap between
// real execution and the side-channel estimators (universal.SimulateMultiply,
// universal.ModelExecutor, costmodel): those replay plans; this backend
// times what the executor actually did, including its dynamic scheduling
// decisions.
//
// Timing model. Every PE carries a virtual clock. A remote transfer
// src→dst may not start before the initiating PE's clock, the source's
// egress port, and the destination's ingress port are all free; it then
// occupies both ports for latency + bytes/bandwidth (+ kernel-launch
// overhead), the same serialization that produces the network hot-spotting
// the paper's iteration offset (§4.2) exists to avoid. When the topology
// is link-routed (internal/fabric via simnet.Routed), the two ports are
// replaced by the transfer's whole route: every link on the static
// src→dst path is reserved for the transfer's duration, so transfers with
// different endpoints still contend when they share a switch uplink, a
// NIC, or a rail, and per-link busy/queue/byte accounting is reported
// through runtime.FabricStatsOf. On multi-node topologies
// (simnet.NodeMapper), AccumulateAdd between PEs on different machines is
// automatically routed through the §3 get+put path — RDMA-only inter-node
// fabrics offer no remote atomics — and priced as the full round trip it
// performs. Synchronous
// operations advance the caller's clock to the transfer's end; asynchronous
// operations reserve the ports at issue and advance the clock only when the
// future is waited on, which is what lets prefetch depth and bounded chain
// concurrency overlap communication with compute in the modeled timeline
// exactly as they do in the real one. Local operations (src == dst and
// same-device accumulates) are priced against the device's memory
// bandwidth and bypass the ports. Compute is reported by executors through
// runtime.ChargeGemm and priced with the gpusim roofline. Barriers
// synchronize every PE's clock to the global maximum.
//
// Durations come from the shared §4.3 cost tables (internal/costmodel), so
// this backend, internal/gpubackend, and the plan-replay estimators all
// price a given transfer, accumulate, or GEMM identically; the backends
// differ only in how operations contend. The single clock per PE means
// operations issued by one PE serialize in the model even when a deeper
// pipeline would queue them — queue-depth contention and accumulate/GEMM
// interference are invisible here and are what internal/gpubackend adds.
package simbackend

import (
	"fmt"
	"sync"

	"slicing/internal/costmodel"
	"slicing/internal/fabric"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
)

// Backend builds simnet-timed worlds over one evaluation system (an
// interconnect topology plus a device model, e.g. Table 2's PVC or H100
// node).
type Backend struct {
	Topo simnet.Topology
	Dev  gpusim.Device
}

// New returns a backend for the given system.
func New(topo simnet.Topology, dev gpusim.Device) Backend {
	return Backend{Topo: topo, Dev: dev}
}

// Name identifies the backend.
func (b Backend) Name() string { return "simnet:" + b.Topo.Name() }

// NewWorld creates a timed world of p PEs. p must match the topology.
func (b Backend) NewWorld(p int) rt.World {
	if p != b.Topo.NumPE() {
		panic(fmt.Sprintf("simbackend: world of %d PEs over %d-PE topology %s",
			p, b.Topo.NumPE(), b.Topo.Name()))
	}
	w := &World{
		inner:       shmem.NewWorld(p),
		topo:        b.Topo,
		dev:         b.Dev,
		cost:        costmodel.New(b.Topo, b.Dev),
		clock:       make([]float64, p),
		egressFree:  make([]float64, p),
		ingressFree: make([]float64, p),
		snapshot:    make([]float64, p),
	}
	if routed, ok := b.Topo.(simnet.Routed); ok {
		w.routed = routed
		w.links = fabric.NewQueues(routed.NumLinks())
	}
	w.nodes, _ = b.Topo.(simnet.NodeMapper)
	return w
}

// World is a timed world: real symmetric memory (delegated to an inner
// shmem world) plus per-PE virtual clocks and network port (or, on
// link-routed topologies, per-link) schedules.
type World struct {
	inner  *shmem.World
	topo   simnet.Topology
	dev    gpusim.Device
	cost   *costmodel.Model  // the shared §4.3 pricing of transfers/accumulates/GEMMs
	routed simnet.Routed     // non-nil when topo models individual links
	nodes  simnet.NodeMapper // non-nil when topo spans machines

	mu          sync.Mutex     // protects all timing state below
	clock       []float64      // per-PE virtual time, seconds
	egressFree  []float64      // per-PE egress port availability (scalar topologies)
	ingressFree []float64      // per-PE ingress port availability (scalar topologies)
	links       *fabric.Queues // per-link availability (routed topologies)
	snapshot    []float64      // clock snapshots for barrier time-sync
}

// Compile-time checks against the runtime contract. Note the absence of
// rt.StreamTimer: this backend's single clock per PE cannot observe queue
// depth or accumulate/GEMM interference; internal/gpubackend exists for
// that.
var (
	_ rt.Backend      = Backend{}
	_ rt.World        = (*World)(nil)
	_ rt.TimedWorld   = (*World)(nil)
	_ rt.FabricTimer  = (*World)(nil)
	_ rt.LinkDegrader = (*World)(nil)
	_ rt.PE           = (*pe)(nil)
	_ rt.Clock        = (*pe)(nil)
	_ rt.GemmTimer    = (*pe)(nil)
)

// World returns the world itself, satisfying runtime.Allocator.
func (w *World) World() rt.World { return w }

// NumPE returns the number of processing elements.
func (w *World) NumPE() int { return w.inner.NumPE() }

// AllocSymmetric reserves a segment of n float32 on every PE.
func (w *World) AllocSymmetric(n int) rt.SegmentID { return w.inner.AllocSymmetric(n) }

// SegmentStorage returns rank's backing array for host-side initialization.
func (w *World) SegmentStorage(seg rt.SegmentID, rank int) []float32 {
	return w.inner.SegmentStorage(seg, rank)
}

// SegmentLen returns the per-PE length of a segment.
func (w *World) SegmentLen(seg rt.SegmentID) int { return w.inner.SegmentLen(seg) }

// Stats returns the world's traffic counters (identical to what the shmem
// backend would count for the same run).
func (w *World) Stats() rt.Stats { return w.inner.Stats() }

// ResetStats zeroes the traffic counters.
func (w *World) ResetStats() { w.inner.ResetStats() }

// Run executes body on every PE. Virtual clocks persist across calls so a
// multi-phase workload accumulates one timeline; use ResetTime between
// independent measurements.
func (w *World) Run(body func(pe rt.PE)) {
	w.inner.Run(func(inner rt.PE) {
		body(&pe{inner: inner, w: w, rank: inner.Rank()})
	})
}

// PredictedSeconds returns the modeled wall-clock so far: the maximum
// virtual time reached by any PE. Call it after Run.
func (w *World) PredictedSeconds() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	worst := 0.0
	for _, c := range w.clock {
		if c > worst {
			worst = c
		}
	}
	return worst
}

// PETime returns one rank's virtual time.
func (w *World) PETime(rank int) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.clock[rank]
}

// ResetTime zeroes all clocks and port/link schedules.
func (w *World) ResetTime() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.clock {
		w.clock[i] = 0
		w.egressFree[i] = 0
		w.ingressFree[i] = 0
	}
	if w.links != nil {
		w.links.Reset()
	}
}

// FabricLinkStats reports per-link busy/queue/byte accounting
// (runtime.FabricTimer). It returns nil on scalar topologies, whose ports
// are not links — absence is information, like StreamStatsOf.
func (w *World) FabricLinkStats() []rt.LinkStats {
	if w.links == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]rt.LinkStats, w.routed.NumLinks())
	for i := range out {
		out[i] = rt.LinkStats{
			Link:              w.routed.LinkName(i),
			BusySeconds:       w.links.BusyFor(i),
			QueueDelaySeconds: w.links.QueueDelayFor(i),
			Bytes:             w.links.BytesFor(i),
		}
	}
	return out
}

// DegradeLink downtrains the named fabric link mid-run
// (runtime.LinkDegrader): on a link-routed topology it multiplies the
// link's effective bandwidth by factor through the race-safe
// fabric.DegradeAt path, so transfers priced after the call see the
// degraded rail while in-flight reservations keep their old durations.
// Returns false on scalar topologies or unknown link names.
func (w *World) DegradeLink(name string, factor float64) bool {
	ft, ok := w.topo.(interface{ Fabric() *fabric.Fabric })
	if !ok {
		return false
	}
	f := ft.Fabric()
	for li := 0; li < f.NumLinks(); li++ {
		if f.LinkAt(li).Name == name {
			f.DegradeAt(li, factor)
			return true
		}
	}
	return false
}

// crossNode reports whether two PEs live on different machines of a
// multi-node topology — the boundary past which remote atomics are
// unavailable and AccumulateAdd must take the §3 get+put path.
func (w *World) crossNode(a, b int) bool {
	return w.nodes != nil && w.nodes.NodeOf(a) != w.nodes.NodeOf(b)
}

// Topology returns the modeled interconnect.
func (w *World) Topology() simnet.Topology { return w.topo }

// Device returns the modeled device.
func (w *World) Device() gpusim.Device { return w.dev }

// transferDur prices moving n float32 from src to dst (a get or a put)
// through the shared §4.3 cost tables, so this backend, gpubackend, and the
// plan-replay estimators price a given transfer identically.
func (w *World) transferDur(src, dst, n int) float64 {
	return w.cost.FetchCost(src, dst, 4*n)
}

// accumDur prices an n-float32 accumulate from rank into dst's memory via
// the shared cost model.
func (w *World) accumDur(rank, dst, n int) float64 {
	return w.cost.AccumCost(rank, dst, 4*n)
}

// chargeTransfer schedules a contended transfer of n float32 initiated by
// rank, with data flowing src→dst: on scalar topologies it reserves the
// source's egress and the destination's ingress port; on link-routed
// topologies it reserves every link of the static src→dst route, so the
// busiest link on the route governs the start time. The transfer may not
// start before floor (used to serialize the get and put halves of the §3
// inter-node accumulate); pass 0 when only the initiator's clock gates
// it. It returns the transfer's modeled end time; when sync is true the
// initiator's clock advances to it.
func (w *World) chargeTransfer(rank, src, dst, n int, dur, floor float64, sync bool) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.clock[rank]
	if floor > start {
		start = floor
	}
	var end float64
	switch {
	case src == dst:
		end = start + dur
	case w.links != nil:
		_, end = w.links.Reserve(w.routed.RouteIDs(src, dst), start, dur, int64(4*n))
	default:
		if w.egressFree[src] > start {
			start = w.egressFree[src]
		}
		if w.ingressFree[dst] > start {
			start = w.ingressFree[dst]
		}
		end = start + dur
		w.egressFree[src] = end
		w.ingressFree[dst] = end
	}
	if sync && end > w.clock[rank] {
		w.clock[rank] = end
	}
	return end
}

// chargeLocal advances rank's clock by dur of device-local busy time.
func (w *World) chargeLocal(rank int, dur float64) {
	w.mu.Lock()
	w.clock[rank] += dur
	w.mu.Unlock()
}

// advanceTo raises rank's clock to at least t (used by future waits).
func (w *World) advanceTo(rank int, t float64) {
	w.mu.Lock()
	if t > w.clock[rank] {
		w.clock[rank] = t
	}
	w.mu.Unlock()
}
