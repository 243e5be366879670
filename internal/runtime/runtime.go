// Package runtime defines the one-sided execution contract the paper's
// universal algorithm assumes (§1, §3): a symmetric heap allocated
// collectively across processing elements, and exactly two communication
// primitives — remote get and remote accumulate (plus put, their trivial
// dual) — addressed by (segment, rank, offset). Everything above this
// package (the distributed matrix, the universal algorithm, serving, the
// benchmark harness) is written against these interfaces, so the same
// algorithm runs unmodified on any backend:
//
//   - internal/shmem: the in-process PGAS backend (goroutine PEs, striped
//     atomic accumulates), the stand-in for Intel SHMEM / NVSHMEM.
//   - internal/gpubackend: the timed backend, which performs the same real
//     data movement while recording every operation, then schedules the
//     recording on modeled per-device engines (a compute engine, copy
//     engines) and the interconnect's ports or links with gpusim.Engine,
//     so one run yields both a numeric result and a modeled wall-clock,
//     including queue-depth contention and accumulate/GEMM interference
//     (paper §5.2).
//
// The contract has a small mandatory core (Backend, World, PE, Future) and
// optional capability interfaces backends add on top: GemmTimer (PEs that
// price local GEMMs), HostThreader (PEs that model a rank's host threads
// apart), TimedWorld (worlds with a modeled wall-clock and its
// stream and link accounting), and the fault hooks in faults.go and
// membership.go. Helpers in this package (ChargeGemm, PredictedTimeOf,
// StreamStatsOf, FabricStatsOf) let algorithm and harness code use the
// hooks unconditionally; they no-op or report absence on backends that do
// not implement them.
//
// docs/BACKENDS.md is the authoritative prose version of this contract —
// per-method semantics, completion and memory-ordering guarantees, and the
// conformance suite a new backend must pass.
package runtime

// SegmentID names a symmetric allocation: the same logical segment exists
// on every PE in the world.
type SegmentID int

// Stats aggregates one-sided traffic counters for a world. Remote counts
// cover operations whose target rank differs from the initiating PE; local
// operations are also tracked since algorithms often read their own replica
// through the same primitives.
type Stats struct {
	RemoteGetBytes   int64
	RemotePutBytes   int64
	RemoteAccumBytes int64
	LocalGetBytes    int64
	LocalPutBytes    int64
	LocalAccumBytes  int64
	RemoteOps        int64
	LocalOps         int64
}

// Allocator abstracts symmetric-heap allocation so data structures can be
// built either ahead of Run (from the World, host-side) or collectively
// from inside PE bodies (from a PE, OpenSHMEM shmem_malloc-style). Both
// World and PE satisfy it.
type Allocator interface {
	// AllocSymmetric reserves a segment of n float32 on every PE.
	AllocSymmetric(n int) SegmentID
	// World returns the world the allocation lives in.
	World() World
}

// World is a collection of PEs sharing a symmetric heap.
type World interface {
	Allocator
	// NumPE returns the number of processing elements.
	NumPE() int
	// SegmentStorage returns rank's backing array for a segment, for
	// host-side initialization before the world runs. Using it while PEs
	// are running bypasses the one-sided discipline and its accounting.
	SegmentStorage(seg SegmentID, rank int) []float32
	// SegmentLen returns the per-PE length of a segment.
	SegmentLen(seg SegmentID) int
	// Run spawns one execution context per PE, invokes body with each PE
	// handle, and waits for all of them to return. Calls on one world do
	// not overlap: a Run made while another is in progress waits for it.
	Run(body func(pe PE))
	// Stats returns a snapshot of the world's traffic counters.
	Stats() Stats
	// ResetStats zeroes the world's traffic counters.
	ResetStats()
}

// PE is a processing element's handle to the world: the two one-sided
// primitives of the paper (remote get and remote accumulate), their strided
// and asynchronous variants, put, barrier, and collective allocation. A PE
// value is only valid inside the World.Run body that created it.
//
// A synchronous accumulate or put has landed when it returns: its update is
// applied to the target's memory, and a reader ordered after the return by
// any Go synchronization with the issuing goroutine — a channel send, not
// only a barrier — sees it. The serving layer answers a request whose work
// is all on one rank (universal.CompiledPlan.SoloRank) on the strength of
// this, before the batch's closing barrier. Every backend here meets it:
// shmem applies the update before returning, the timed backend wraps shmem,
// and the chaos wrapper injects a fault before the inner op, so a failed
// attempt moves nothing and the retry that succeeds has landed.
type PE interface {
	Allocator
	// Rank returns this PE's rank in [0, NumPE).
	Rank() int
	// NumPE returns the world size.
	NumPE() int
	// Local returns this PE's local storage for a segment. The returned
	// slice aliases symmetric memory (the zero-copy fast path); other PEs
	// may read or accumulate into it at any time, so callers must
	// coordinate with barriers before assuming quiescence.
	Local(seg SegmentID) []float32
	// Get copies len(dst) elements starting at offset from the segment on
	// the remote rank into dst — the one-sided remote read primitive.
	Get(dst []float32, seg SegmentID, remote, offset int)
	// Put copies src into the segment on the remote rank starting at
	// offset — the one-sided remote write primitive.
	Put(src []float32, seg SegmentID, remote, offset int)
	// AccumulateAdd atomically adds src element-wise into the segment on
	// the remote rank starting at offset — the remote accumulate primitive.
	AccumulateAdd(src []float32, seg SegmentID, remote, offset int)
	// AccumulateAddGetPut accumulates via the paper's inter-node scheme
	// (§3): coarse lock, remote get, local add, remote put. Semantically
	// identical to AccumulateAdd; priced as a full round trip.
	AccumulateAddGetPut(src []float32, seg SegmentID, remote, offset int)
	// GetStrided copies a rows×cols block with the given row strides from a
	// remote segment region into dst (2-D sub-tile fetch).
	GetStrided(dst []float32, dstStride int, seg SegmentID, remote, offset, srcStride, rows, cols int)
	// PutStrided writes a rows×cols block from src into a remote segment
	// region.
	PutStrided(src []float32, srcStride int, seg SegmentID, remote, offset, dstStride, rows, cols int)
	// AccumulateAddStrided atomically adds a rows×cols block from src into
	// a remote segment region.
	AccumulateAddStrided(src []float32, srcStride int, seg SegmentID, remote, offset, dstStride, rows, cols int)
	// GetAsync starts a one-sided read and returns a Future that completes
	// when dst has been filled (get_tile_async in Table 1).
	GetAsync(dst []float32, seg SegmentID, remote, offset int) Future
	// GetStridedAsync is the asynchronous strided get.
	GetStridedAsync(dst []float32, dstStride int, seg SegmentID, remote, offset, srcStride, rows, cols int) Future
	// AccumulateAddAsync starts a one-sided accumulate and returns a Future.
	AccumulateAddAsync(src []float32, seg SegmentID, remote, offset int) Future
	// Barrier blocks until every PE in the world has entered the barrier.
	Barrier()
}

// Backend constructs worlds of one runtime flavour. Backends are how the
// benchmark harness and conformance tests run the same algorithm over
// different execution substrates.
type Backend interface {
	// Name identifies the backend ("shmem", "gpusim:8xH100 NVLink", ...).
	Name() string
	// NewWorld creates a world of p processing elements.
	NewWorld(p int) World
}

// GemmTimer is implemented by timed backends that price local GEMM compute
// with a device model. The executor reports each local multiply through
// ChargeGemm so the modeled wall-clock covers compute as well as
// communication without the algorithm knowing device details.
type GemmTimer interface {
	// ElapseGemm charges the modeled duration of an m×n×k local GEMM.
	ElapseGemm(m, n, k int)
}

// ChargeGemm reports an m×n×k local GEMM to pe's backend. It is a no-op on
// untimed backends, so executors call it unconditionally.
func ChargeGemm(pe PE, m, n, k int) {
	if t, ok := pe.(GemmTimer); ok {
		t.ElapseGemm(m, n, k)
	}
}

// HostThreader is implemented by PEs of backends that give each host
// thread of a rank its own modeled clock (the timed backend). An executor
// that runs part of a rank's work concurrently on other goroutines issues
// that work through HostThread(i), so work that overlaps in real execution
// overlaps in the model; thread 0 is the PE itself.
type HostThreader interface {
	HostThread(i int) PE
}

// HostThread returns pe's handle for its host thread i: pe itself on
// backends that do not model host threads.
func HostThread(pe PE, i int) PE {
	if t, ok := pe.(HostThreader); ok {
		return t.HostThread(i)
	}
	return pe
}

// TimedWorld is implemented by worlds of timed backends: they carry a
// modeled wall-clock alongside the real execution, with the stream and link
// accounting behind it. Harness code uses it to time the same benchmark
// without naming a backend.
type TimedWorld interface {
	World
	// PredictedSeconds returns the modeled wall-clock so far: the furthest
	// point any PE's timeline has reached. Call it after Run.
	PredictedSeconds() float64
	// ResetTime rewinds the model to t=0 (clocks, engines, ports) without
	// touching data, so one world can time successive independent
	// measurements.
	ResetTime()
	// StreamStats returns a snapshot of the run's stream-level delay
	// signals. Call it after Run.
	StreamStats() StreamStats
	// FabricLinkStats returns one entry per fabric link, in link order, or
	// nil when the world's topology has no link model. Call it after Run.
	FabricLinkStats() []LinkStats
}

// PredictedTimeOf returns w's modeled wall-clock, and ok=false when w's
// backend is untimed.
func PredictedTimeOf(w World) (seconds float64, ok bool) {
	if tw, timed := w.(TimedWorld); timed {
		return tw.PredictedSeconds(), true
	}
	return 0, false
}

// StreamStats reports the delay signals of a timed run's per-device
// engines: how long operations queued behind busy engines, and how long
// remote accumulates occupied victim compute engines.
type StreamStats struct {
	// QueueDelaySeconds totals the time ops sat queued behind a busy
	// engine or port after their dependencies were already satisfied —
	// the queue-depth contention of deep prefetch pipelines.
	QueueDelaySeconds float64
	// AccumInterferenceSeconds totals the time remote accumulates occupied
	// victim devices' compute engines, the accumulate-kernel/GEMM
	// interference the paper measures on H100 (§5.2). Zero on devices
	// without Device.AccumComputeInterference.
	AccumInterferenceSeconds float64
	// StreamOps counts operations scheduled on device engines.
	StreamOps int
}

// StreamStatsOf returns w's stream-level delay signals, and ok=false when
// w's backend is untimed.
func StreamStatsOf(w World) (StreamStats, bool) {
	if tw, ok := w.(TimedWorld); ok {
		return tw.StreamStats(), true
	}
	return StreamStats{}, false
}

// LinkStats reports one fabric link's share of a timed run: how long it
// was occupied, how long transfers queued behind it, and the payload it
// carried. Only worlds running over a link-routed topology
// (internal/fabric via simnet.Routed) can report these — the legacy
// scalar topologies have ports, not links.
type LinkStats struct {
	// Link is the fabric link's name (e.g. "n0.nic0.ib>", "rail0.spine1<").
	Link string
	// BusySeconds totals the time transfers occupied the link.
	BusySeconds float64
	// QueueDelaySeconds totals the time transfers sat queued because this
	// link was the binding constraint on their route.
	QueueDelaySeconds float64
	// Bytes totals the payload carried over the link.
	Bytes int64
}

// FabricStatsOf returns w's per-link fabric accounting, and ok=false when
// w's backend is untimed or its topology has no link model (a timed world
// over a scalar topology returns nil: absence is information).
func FabricStatsOf(w World) ([]LinkStats, bool) {
	if tw, ok := w.(TimedWorld); ok {
		if ls := tw.FabricLinkStats(); ls != nil {
			return ls, true
		}
	}
	return nil, false
}
