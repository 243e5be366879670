// Package gpubackend is the timed execution backend: a runtime.Backend
// that performs the same real data movement as the in-process shmem
// backend while recording every operation, and prices the recording on
// the same discrete-event engine (gpusim.Engine) the plan replay uses.
//
// Record. Each PE appends its one-sided ops and GEMMs (reported by
// executors through runtime.ChargeGemm) to its own log in issue order,
// together with its future waits and barriers. A record holds its peer,
// its bytes and the duration priced when it was issued: durations are the
// §4.3 op prices of simnet.System, the price list the plan replay reads,
// so a link degraded mid-run slows exactly the ops issued after it.
//
// Schedule once. The first PredictedSeconds, StreamStats or
// FabricLinkStats after the logs change builds one gpusim.Engine DAG from
// them and runs it. Ops enter barrier epoch by epoch, rank-major, in log
// order, and host order becomes edges: an op starts no earlier than its
// host thread's clock and the end of every op its PE's futures waited on;
// a synchronous op moves its thread's clock to its end; a barrier is a
// zero-duration join across all PEs. Asynchronous ops therefore overlap
// whatever the host does until it waits, so PrefetchDepth shapes the
// modeled pipeline as it shapes the real one. A PE is one host thread
// unless an executor issues through runtime.HostThread, as the universal
// executor does for its MaxInflight concurrent chains. The schedule does
// not depend on how the PEs' goroutines interleave, so a run whose PEs
// each issue from one goroutine (MaxInflight 1, raw PE programs) prices
// identically every time; with several threads per PE, the order they
// append to the PE's log still varies from run to run.
//
// Occupancy. The DAG is built through simnet.Occupancy, the builder the
// plan replay uses: network ports or route links, compute engines, the §3
// get+put round trip across a node boundary, and the accumulate rule of
// gpusim.Device (an intra-node remote accumulate on an interference
// device holds the target's compute engine; a local one holds the PE's).
// The backend adds each device's copy engines (Device.CopyInEngines for
// gets, Device.CopyOutEngines for puts and accumulate egress), taken
// round-robin in log order, so a deep prefetch queues on a one-engine PVC
// tile and overlaps on a three-engine H100.
//
// Signals. Queue delay (an op's start minus its latest dependency's end,
// charged to the binding resource; gpusim.Engine.QueueDelay), the seconds
// remote accumulates held victim compute engines (interference, §5.2), and
// per-link busy time, queue delay and bytes on link-routed topologies are
// read off the schedule and reported through runtime.StreamStatsOf and
// runtime.FabricStatsOf. Schedule exposes the engine and its result for
// trace.WriteGantt.
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

// Backend builds timed worlds over one evaluation system (an interconnect
// topology plus a device model, e.g. Table 2's PVC or H100 node).
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
		shmemWorld: shmem.NewWorld(p),
		sys:        simnet.System{Topo: b.Topo, Dev: b.Dev},
		logs:       make([][]record, p),
		eng:        gpusim.NewEngine(),
	}
	w.routed, _ = b.Topo.(simnet.Routed)
	return w
}

// shmemWorld aliases the inner world's type so World can embed it without
// the field name colliding with the World() method of the runtime contract.
type shmemWorld = shmem.World

// World is a timed world: real symmetric memory and traffic counters (the
// embedded shmem world, so Stats match what shmem would count) plus a
// per-PE log of the modeled ops, scheduled on demand.
type World struct {
	*shmemWorld
	sys    simnet.System // the op prices
	routed simnet.Routed // non-nil when sys.Topo models individual links

	mu   sync.Mutex
	logs [][]record // per-PE ops in issue order

	// The schedule of logs; schedule rebuilds it when not fresh.
	fresh        bool
	eng          *gpusim.Engine
	occ          simnet.Occupancy
	res          gpusim.Result
	ops          int       // modeled ops (joins and barriers excluded)
	interference float64   // seconds remote accumulates held victim compute engines
	queueDelay   float64   // total queue delay of res
	resDelay     []float64 // queue delay charged to each engine resource
	linkBytes    []int64   // payload per fabric link (routed topologies)
}

// Compile-time checks against the runtime contract.
var (
	_ rt.Backend      = Backend{}
	_ rt.TimedWorld   = (*World)(nil)
	_ rt.LinkDegrader = (*World)(nil)
	_ rt.GemmTimer    = (*pe)(nil)
	_ rt.HostThreader = (*pe)(nil)
)

// World returns the world itself, satisfying runtime.Allocator.
func (w *World) World() rt.World { return w }

// Run executes body on every PE. The logs persist across calls, so a
// multi-phase workload accumulates one schedule; use ResetTime between
// independent measurements.
func (w *World) Run(body func(pe rt.PE)) {
	w.shmemWorld.Run(func(inner rt.PE) {
		body(&pe{PE: inner, w: w, rank: inner.Rank()})
	})
}

// PredictedSeconds returns the modeled wall-clock of everything run so
// far: the makespan of the scheduled logs.
func (w *World) PredictedSeconds() float64 {
	defer w.scheduled()()
	return w.res.Makespan
}

// ResetTime rewinds the model to t=0 by dropping every PE's log.
func (w *World) ResetTime() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.logs {
		w.logs[i] = w.logs[i][:0]
	}
	w.fresh = false
}

// StreamStats reports the schedule's delay signals (runtime.TimedWorld).
func (w *World) StreamStats() rt.StreamStats {
	defer w.scheduled()()
	return rt.StreamStats{QueueDelaySeconds: w.queueDelay, AccumInterferenceSeconds: w.interference, StreamOps: w.ops}
}

// FabricLinkStats reports per-link busy/queue/byte accounting read off the
// schedule (runtime.TimedWorld). A transfer queued behind several links
// freed at the same instant is charged to the lowest-numbered one. It
// returns nil on scalar topologies — absence is information.
func (w *World) FabricLinkStats() []rt.LinkStats {
	if w.routed == nil {
		return nil
	}
	defer w.scheduled()()
	out := make([]rt.LinkStats, len(w.occ.Links))
	for li, r := range w.occ.Links {
		out[li] = rt.LinkStats{Link: w.routed.LinkName(li), BusySeconds: w.res.BusyTime[r],
			QueueDelaySeconds: w.resDelay[r], Bytes: w.linkBytes[li]}
	}
	return out
}

// Schedule returns the engine holding the scheduled logs and its result,
// for trace.WriteGantt. Both stay valid until the logs change and are
// scheduled again.
func (w *World) Schedule() (*gpusim.Engine, gpusim.Result) {
	defer w.scheduled()()
	return w.eng, w.res
}

// scheduled locks the world with its logs scheduled and returns the
// unlock.
func (w *World) scheduled() (unlock func()) {
	w.mu.Lock()
	w.schedule()
	return w.mu.Unlock
}

// DegradeLink downtrains the named fabric link mid-run
// (runtime.LinkDegrader) via the race-safe fabric.DegradeAt path; ops
// issued after the call are priced on the degraded rail. Returns false on
// scalar topologies or unknown link names.
func (w *World) DegradeLink(name string, factor float64) bool {
	ft, ok := w.sys.Topo.(interface{ Fabric() *fabric.Fabric })
	if !ok {
		return false
	}
	li, ok := ft.Fabric().LinkIndex(name)
	if ok {
		ft.Fabric().DegradeAt(li, factor)
	}
	return ok
}

// record appends r to rank's log and returns its index.
func (w *World) record(rank int, r record) int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.logs[rank] = append(w.logs[rank], r)
	w.fresh = false
	return int32(len(w.logs[rank]) - 1)
}
