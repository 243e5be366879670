// Package gpubackend is the timed execution backend: a runtime.Backend
// that performs the same real data movement as the in-process shmem
// backend while scheduling every operation on modeled per-device engines —
// a compute stream and directional copy engines per PE, plus the network
// ports of the simnet topology — on one shared gpusim.Timeline.
//
// Each device gets the engine structure of a real GPU runtime:
//
//   - one compute stream, which serializes the device's GEMMs (reported by
//     executors through runtime.ChargeGemm), its local accumulate kernels,
//     and — on devices with Device.AccumComputeInterference set (H100,
//     §5.2) — remote accumulate kernels other PEs launch into it;
//   - Device.CopyInEngines copy-in engines, which carry the DMA of gets
//     this PE issues (each op lands on the least-loaded engine and queues
//     only when all are busy — an H100 has more DMA engines than a PVC
//     tile, so the same prefetch depth queues on one device and overlaps
//     on the other);
//   - Device.CopyOutEngines copy-out engines, which carry puts and the
//     egress half of accumulates this PE issues;
//   - the network: per-PE egress/ingress ports on scalar topologies, or —
//     when the topology is link-routed (internal/fabric via simnet.Routed)
//     — one resource per fabric link, with every transfer occupying its
//     whole static route, so transfers with different endpoints contend on
//     shared switch uplinks, NICs, and rails, and per-link accounting is
//     reported through runtime.FabricStatsOf.
//
// On multi-node topologies (simnet.NodeMapper), AccumulateAdd between PEs
// on different machines is automatically rerouted through the §3 get+put
// path — RDMA-only inter-node fabrics offer no remote atomics — with the
// put's stream op gated on the get's completion event.
//
// Every operation is enqueued as a gpusim.StreamOp: it may not start before
// the issuing PE's host clock (NotBefore), before the events it waits on
// have fired, or while any engine or port it occupies is busy. The gap
// between "ready" and "started" is queue delay, and the time remote
// accumulates occupy victim compute streams is interference — the two
// signals the paper's H100 results hinge on. Worlds report both through
// runtime.StreamStatsOf.
//
// Synchronous operations advance the caller's host clock to the op's
// completion; asynchronous operations enqueue at issue and advance the
// clock only when the future is waited on, so PrefetchDepth and MaxInflight
// shape the modeled pipeline exactly as they shape the real one, and
// issuing more in-flight work than the engines can absorb shows up as
// measured queue delay. Durations are the §4.3 op prices of
// simnet.System, the same price list the plan replay reads, so the timed
// backend and the estimators price identical work identically and differ
// only in contention structure.
package gpubackend

import (
	"fmt"
	"sync"

	"slicing/internal/fabric"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
)

// Backend builds stream/event-timed worlds over one evaluation system (an
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
func (b Backend) Name() string { return "gpusim:" + b.Topo.Name() }

// NewWorld creates a timed world of p PEs. p must match the topology.
func (b Backend) NewWorld(p int) rt.World {
	if p != b.Topo.NumPE() {
		panic(fmt.Sprintf("gpubackend: world of %d PEs over %d-PE topology %s",
			p, b.Topo.NumPE(), b.Topo.Name()))
	}
	w := &World{
		inner:    shmem.NewWorld(p),
		sys:      simnet.System{Topo: b.Topo, Dev: b.Dev},
		tl:       gpusim.NewTimeline(),
		host:     make([]float64, p),
		snapshot: make([]float64, p),
		compute:  make([]*gpusim.Stream, p),
		copyIn:   make([][]*gpusim.Stream, p),
		copyOut:  make([][]*gpusim.Stream, p),
	}
	w.routed, _ = b.Topo.(simnet.Routed)
	nIn, nOut := b.Dev.NumCopyInEngines(), b.Dev.NumCopyOutEngines()
	for i := 0; i < p; i++ {
		w.compute[i] = w.tl.NewStream(fmt.Sprintf("pe%d.compute", i))
		w.copyIn[i] = engineStreams(w.tl, fmt.Sprintf("pe%d.copy-in", i), nIn)
		w.copyOut[i] = engineStreams(w.tl, fmt.Sprintf("pe%d.copy-out", i), nOut)
	}
	if w.routed != nil {
		n := w.routed.NumLinks()
		w.linkRes = make([]gpusim.ResourceID, n)
		w.linkBytes = make([]int64, n)
		for i := 0; i < n; i++ {
			w.linkRes[i] = w.tl.AddResource(w.routed.LinkName(i))
		}
	} else {
		w.egress = make([]gpusim.ResourceID, p)
		w.ingress = make([]gpusim.ResourceID, p)
		for i := 0; i < p; i++ {
			w.egress[i] = w.tl.AddResource(fmt.Sprintf("pe%d.egress", i))
			w.ingress[i] = w.tl.AddResource(fmt.Sprintf("pe%d.ingress", i))
		}
	}
	return w
}

// engineStreams registers n same-role DMA engine streams for one PE. A
// single engine keeps the historical name; multiple engines are numbered.
func engineStreams(tl *gpusim.Timeline, base string, n int) []*gpusim.Stream {
	streams := make([]*gpusim.Stream, n)
	for e := 0; e < n; e++ {
		name := base
		if n > 1 {
			name = fmt.Sprintf("%s%d", base, e)
		}
		streams[e] = tl.NewStream(name)
	}
	return streams
}

// World is a stream/event-timed world: real symmetric memory (delegated to
// an inner shmem world) plus modeled per-device engines on a shared
// timeline and a host clock per PE.
type World struct {
	inner  *shmem.World
	sys    simnet.System // the op prices
	routed simnet.Routed // non-nil when sys.Topo models individual links

	tl      *gpusim.Timeline
	compute []*gpusim.Stream    // per-PE compute stream (GEMMs, accumulate kernels)
	copyIn  [][]*gpusim.Stream  // per-PE get DMA engines (Device.CopyInEngines)
	copyOut [][]*gpusim.Stream  // per-PE put/accumulate-egress DMA engines
	egress  []gpusim.ResourceID // per-PE fabric egress port (scalar topologies)
	ingress []gpusim.ResourceID // per-PE fabric ingress port (scalar topologies)
	linkRes []gpusim.ResourceID // per-fabric-link resource (routed topologies)

	mu           sync.Mutex
	host         []float64 // per-PE host clock: when the PE's thread is at
	snapshot     []float64 // host-clock snapshots for barrier time-sync
	linkBytes    []int64   // per-link payload bytes (routed topologies)
	interference float64   // seconds remote accums occupied victim compute streams
}

// Compile-time checks against the runtime contract.
var (
	_ rt.Backend      = Backend{}
	_ rt.World        = (*World)(nil)
	_ rt.TimedWorld   = (*World)(nil)
	_ rt.LinkDegrader = (*World)(nil)
	_ rt.PE           = (*pe)(nil)
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

// Run executes body on every PE. Host clocks and engine schedules persist
// across calls so a multi-phase workload accumulates one timeline; use
// ResetTime between independent measurements.
func (w *World) Run(body func(pe rt.PE)) {
	w.inner.Run(func(inner rt.PE) {
		body(&pe{inner: inner, w: w, rank: inner.Rank()})
	})
}

// PredictedSeconds returns the modeled wall-clock so far: the furthest
// point reached by any PE's host clock or any engine's schedule (an
// enqueued op can outlive the host clock of the PE that issued it). Call
// it after Run.
func (w *World) PredictedSeconds() float64 {
	w.mu.Lock()
	worst := 0.0
	for _, c := range w.host {
		if c > worst {
			worst = c
		}
	}
	w.mu.Unlock()
	if end := w.tl.End(); end > worst {
		worst = end
	}
	return worst
}

// PETime returns one rank's host-clock time.
func (w *World) PETime(rank int) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.host[rank]
}

// ResetTime rewinds the model to t=0: host clocks, engine schedules, queue
// and interference accounting, and per-link byte counters.
func (w *World) ResetTime() {
	w.mu.Lock()
	for i := range w.host {
		w.host[i] = 0
	}
	for i := range w.linkBytes {
		w.linkBytes[i] = 0
	}
	w.interference = 0
	w.mu.Unlock()
	w.tl.Reset()
}

// FabricLinkStats reports per-link busy/queue/byte accounting from the
// timeline's link resources (runtime.TimedWorld). It returns nil on scalar
// topologies — absence is information.
func (w *World) FabricLinkStats() []rt.LinkStats {
	if w.routed == nil {
		return nil
	}
	out := make([]rt.LinkStats, len(w.linkRes))
	w.mu.Lock()
	for i := range out {
		out[i].Bytes = w.linkBytes[i]
	}
	w.mu.Unlock()
	for i, res := range w.linkRes {
		out[i].Link = w.routed.LinkName(i)
		out[i].BusySeconds = w.tl.BusyFor(res)
		out[i].QueueDelaySeconds = w.tl.QueueDelayFor(res)
	}
	return out
}

// DegradeLink downtrains the named fabric link mid-run
// (runtime.LinkDegrader) via the race-safe fabric.DegradeAt path; ops
// priced after the call see the degraded rail. Returns false on scalar
// topologies or unknown link names.
func (w *World) DegradeLink(name string, factor float64) bool {
	ft, ok := w.sys.Topo.(interface{ Fabric() *fabric.Fabric })
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

// netResources returns the network resources a src→dst transfer occupies:
// the whole static link route on a routed topology, or the legacy
// egress/ingress port pair on a scalar one. nil for device-local copies.
func (w *World) netResources(src, dst, bytes int) []gpusim.ResourceID {
	if src == dst {
		return nil
	}
	if w.routed == nil {
		return []gpusim.ResourceID{w.egress[src], w.ingress[dst]}
	}
	route := w.routed.RouteIDs(src, dst)
	res := make([]gpusim.ResourceID, len(route))
	w.mu.Lock()
	for i, li := range route {
		res[i] = w.linkRes[li]
		w.linkBytes[li] += int64(bytes)
	}
	w.mu.Unlock()
	return res
}

// nextCopyIn picks the engine for this PE's next get: the one whose
// queue drains earliest, the dispatch a hardware runtime's
// least-loaded engine selection approximates. Ops therefore queue only
// when every engine is busy.
func (w *World) nextCopyIn(rank int) *gpusim.Stream {
	return leastLoaded(w.copyIn[rank])
}

// nextCopyOut picks the engine for this PE's next put/accumulate egress.
func (w *World) nextCopyOut(rank int) *gpusim.Stream {
	return leastLoaded(w.copyOut[rank])
}

// leastLoaded returns the stream whose tail event fires earliest (ties
// go to the lowest-numbered engine, keeping schedules deterministic).
func leastLoaded(streams []*gpusim.Stream) *gpusim.Stream {
	best := streams[0]
	bestT := best.LastEvent().Time()
	for _, s := range streams[1:] {
		if t := s.LastEvent().Time(); t < bestT {
			best, bestT = s, t
		}
	}
	return best
}

// StreamStats reports the run's stream-level delay signals
// (runtime.TimedWorld).
func (w *World) StreamStats() rt.StreamStats {
	w.mu.Lock()
	interference := w.interference
	w.mu.Unlock()
	return rt.StreamStats{
		QueueDelaySeconds:        w.tl.QueueDelay(),
		AccumInterferenceSeconds: interference,
		StreamOps:                w.tl.NumOps(),
	}
}

// Timeline exposes the underlying schedule for tests and trace rendering.
func (w *World) Timeline() *gpusim.Timeline { return w.tl }

// hostAdvanceTo raises rank's host clock to at least t (sync-op completion
// and future waits).
func (w *World) hostAdvanceTo(rank int, t float64) {
	w.mu.Lock()
	if t > w.host[rank] {
		w.host[rank] = t
	}
	w.mu.Unlock()
}

// noteInterference records dur seconds of a remote accumulate occupying a
// victim compute stream.
func (w *World) noteInterference(dur float64) {
	w.mu.Lock()
	w.interference += dur
	w.mu.Unlock()
}
