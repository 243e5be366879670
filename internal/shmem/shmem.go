// Package shmem implements an in-process PGAS (partitioned global address
// space) runtime that stands in for Intel SHMEM / NVSHMEM in the paper.
//
// A World holds p processing elements (PEs). Each PE runs as its own
// goroutine inside World.Run. Symmetric memory is allocated collectively:
// AllocSymmetric reserves a segment of the same size on every PE, returning
// a SegmentID valid world-wide, exactly like a symmetric-heap allocation in
// OpenSHMEM. PEs then communicate only through one-sided operations — Get,
// Put, and AccumulateAdd — addressed by (segment, remote rank, offset),
// never by message passing. This reproduces the communication model the
// universal algorithm requires: remote get and remote accumulate (§1, §3 of
// the paper).
//
// AccumulateAdd is element-wise atomic with respect to other accumulates
// into the same rank's copy of a segment (per-(segment, rank) striped locks
// play the role of the paper's atomic-add kernel / coarse-grained
// inter-node locking), so concurrent partial-result updates from many PEs
// are safe, as required by Stationary A/B data movement.
//
// Nothing on the one-sided op path is process-wide: segments are found
// through an atomically published table, backing arrays are read with an
// atomic load once installed, stripe locks belong to the target rank's
// copy, and traffic counters are per-issuing-rank cells.
//
// The package is the reference implementation of the backend contract in
// internal/runtime; *World and *PE satisfy runtime.World and runtime.PE.
package shmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	rt "slicing/internal/runtime"
)

// SegmentID names a symmetric allocation: the same logical segment exists on
// every PE in the world.
type SegmentID = rt.SegmentID

// Stats aggregates one-sided traffic counters for a world.
type Stats = rt.Stats

// Allocator abstracts symmetric-heap allocation; both *World and *PE
// satisfy it.
type Allocator = rt.Allocator

// Backend constructs in-process PGAS worlds, the first implementation of
// the runtime.Backend contract.
type Backend struct{}

// Name identifies the backend.
func (Backend) Name() string { return "shmem" }

// NewWorld creates a world of p processing elements.
func (Backend) NewWorld(p int) rt.World { return NewWorld(p) }

// Compile-time checks that the package satisfies the runtime contract.
var (
	_ rt.Backend = Backend{}
	_ rt.World   = (*World)(nil)
	_ rt.PE      = (*PE)(nil)
)

// World is a collection of PEs sharing a symmetric heap.
type World struct {
	numPE int

	// segs is the published segment table: segs[seg][rank]. AllocSymmetric
	// appends under mu and swaps the pointer; ops load it without a lock. A
	// published header is never shortened and its elements never change,
	// so an append into spare capacity is invisible to holders of older
	// headers.
	mu   sync.Mutex
	segs atomic.Pointer[[][]rankMem]

	barrier *barrier

	// Collective-allocation bookkeeping: the k-th PE.AllocSymmetric call on
	// every rank resolves to the same segment (collSegs[k]); peAllocSeq
	// tracks each rank's next call index.
	collMu     sync.Mutex
	collSegs   []SegmentID
	peAllocSeq []int

	// traffic[rank] counts the ops rank issued; Stats sums the cells.
	traffic []trafficCell

	// pes[rank] is the handle Run gives rank's body: stateless beyond
	// (world, rank), so one set serves every Run.
	pes []PE
	// running serializes Run: the ranks of one call share the world's
	// barrier, so a second call waits for the first to return.
	running sync.Mutex
	// spare is the run record every Run reuses, so a warm Run allocates
	// nothing; guarded by running.
	spare *run
}

// rankMem is one rank's copy of one segment: its backing array and the
// stripe locks that guard accumulates into it. Built by AllocSymmetric,
// never per op. The array pointer and size sit on their own cache line,
// apart from the mutexes accumulates write, and the struct is a whole
// number of lines so neighbouring ranks share none.
type rankMem struct {
	data    atomic.Pointer[[]float32] // nil until first touch
	size    int
	_       [48]byte
	stripes [numStripes]sync.Mutex
}

// trafficCell is one issuing rank's counters, padded to its own cache
// lines so ranks never write a shared one. The byte counters are indexed
// ctrRemoteGet + opKind (remote) or ctrLocalGet + opKind (local).
// ctrStripeLocks counts stripe-mutex acquisitions; it is not part of Stats
// and exists for the package's tests to pin how many critical sections an
// accumulate takes.
type trafficCell struct {
	n [numCtrs]atomic.Int64
	_ [56]byte
}

const (
	ctrRemoteGet = iota
	ctrRemotePut
	ctrRemoteAccum
	ctrLocalGet
	ctrLocalPut
	ctrLocalAccum
	ctrRemoteOps
	ctrLocalOps
	ctrStripeLocks
	numCtrs
)

// NewWorld creates a world with numPE processing elements.
func NewWorld(numPE int) *World {
	if numPE <= 0 {
		panic(fmt.Sprintf("shmem: invalid world size %d", numPE))
	}
	w := &World{numPE: numPE, barrier: newBarrier(numPE), peAllocSeq: make([]int, numPE),
		traffic: make([]trafficCell, numPE), pes: make([]PE, numPE)}
	for rank := range w.pes {
		w.pes[rank] = PE{world: w, rank: rank}
	}
	w.segs.Store(new([][]rankMem))
	return w
}

// World returns the world itself, satisfying runtime.Allocator.
func (w *World) World() rt.World { return w }

// NumPE returns the number of processing elements in the world.
func (w *World) NumPE() int { return w.numPE }

// AllocSymmetric reserves a segment of n float32 elements on every PE and
// returns its world-wide ID. It may be called before Run or from inside a PE
// body; in the latter case the caller is responsible for ensuring all PEs
// agree on allocation order (typically by allocating before Run, as the
// distributed-matrix layer does).
func (w *World) AllocSymmetric(n int) SegmentID {
	if n < 0 {
		panic(fmt.Sprintf("shmem: invalid segment size %d", n))
	}
	// Backing arrays are allocated lazily on first access so that
	// metadata-only uses (the simulated-time backends, which never touch
	// element data) do not pay for multi-gigabyte matrices.
	ranks := make([]rankMem, w.numPE)
	for r := range ranks {
		ranks[r].size = n
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	segs := append(*w.segs.Load(), ranks)
	w.segs.Store(&segs)
	return SegmentID(len(segs) - 1)
}

// SegmentStorage returns rank's backing array for a segment, for
// host-side initialization before the world runs (e.g. populating sparse
// tile buffers at construction). Using it while PEs are running bypasses
// the one-sided discipline and its traffic accounting; inside Run, use PE
// operations instead.
func (w *World) SegmentStorage(seg SegmentID, rank int) []float32 {
	return w.storage(seg, rank)
}

// SegmentLen returns the per-PE length of a segment.
func (w *World) SegmentLen(seg SegmentID) int { return w.mem(seg, 0).size }

// Run invokes body with each PE handle, rank 0 on the calling goroutine and
// every other rank on a goroutine of its own, and waits for all of them to
// return. Panics inside a PE body are re-raised on the caller after all
// other PEs have been allowed to finish or deadlock is avoided by the panic
// propagating first.
//
// Calls do not overlap: a Run made while another is in progress, from
// another goroutine, waits until that one has returned. A server that
// answers a request before its activation ends (internal/serve) relies on
// this, so a caller's own Run after its reply never meets the server's.
// A Run nested in a PE body therefore deadlocks.
func (w *World) Run(body func(pe rt.PE)) {
	w.running.Lock()
	defer w.running.Unlock()
	if w.spare == nil {
		w.spare = newRun(w)
	}
	r := w.spare
	r.body = body
	r.wg.Add(w.numPE)
	for _, start := range r.starts[1:] {
		go start()
	}
	r.starts[0]() // rank 0 on the caller, which waits anyway
	r.wg.Wait()
	w.barrier.reset()
	panics := r.panics
	r.body, r.panics = nil, nil
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// run is the state the ranks of one Run call share.
type run struct {
	w    *World
	body func(pe rt.PE)
	// starts[rank] is rank bound to that rank's PE once, so starting a rank
	// is a go statement on an argument-free func value, which allocates
	// nothing.
	starts []func()
	wg     sync.WaitGroup
	mu     sync.Mutex
	panics []any // by rank; allocated by the first rank that panics
}

func newRun(w *World) *run {
	r := &run{w: w, starts: make([]func(), w.numPE)}
	for rank := range r.starts {
		pe := &w.pes[rank]
		r.starts[rank] = func() { r.rank(pe) }
	}
	return r
}

// rank runs the body as one PE, recording a panic instead of dying of it.
func (r *run) rank(pe *PE) {
	defer r.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			r.mu.Lock()
			if r.panics == nil {
				r.panics = make([]any, r.w.numPE)
			}
			r.panics[pe.rank] = p
			r.mu.Unlock()
			// Release peers that may be stuck in a barrier.
			r.w.barrier.poison()
		}
	}()
	r.body(pe)
}

// Stats returns a snapshot of the world's traffic counters, summed over
// the issuing ranks' cells.
func (w *World) Stats() Stats {
	var sum [numCtrs]int64
	for r := range w.traffic {
		for i := range sum {
			sum[i] += w.traffic[r].n[i].Load()
		}
	}
	return Stats{
		RemoteGetBytes:   sum[ctrRemoteGet],
		RemotePutBytes:   sum[ctrRemotePut],
		RemoteAccumBytes: sum[ctrRemoteAccum],
		LocalGetBytes:    sum[ctrLocalGet],
		LocalPutBytes:    sum[ctrLocalPut],
		LocalAccumBytes:  sum[ctrLocalAccum],
		RemoteOps:        sum[ctrRemoteOps],
		LocalOps:         sum[ctrLocalOps],
	}
}

// ResetStats zeroes the world's traffic counters.
func (w *World) ResetStats() {
	for r := range w.traffic {
		for i := range w.traffic[r].n {
			w.traffic[r].n[i].Store(0)
		}
	}
}

// mem returns rank's copy of a segment from the published table; no lock.
func (w *World) mem(seg SegmentID, rank int) *rankMem {
	segs := *w.segs.Load()
	if int(seg) < 0 || int(seg) >= len(segs) {
		panic(fmt.Sprintf("shmem: unknown segment %d", seg))
	}
	if rank < 0 || rank >= w.numPE {
		panic(fmt.Sprintf("shmem: rank %d out of world of %d PEs", rank, w.numPE))
	}
	return &segs[seg][rank]
}

// storage returns rank's backing array for a segment.
func (w *World) storage(seg SegmentID, rank int) []float32 { return w.mem(seg, rank).storage(w) }

// storage returns the backing array: an atomic load once installed, and on
// first touch an allocation published under w.mu.
func (m *rankMem) storage(w *World) []float32 {
	if p := m.data.Load(); p != nil {
		return *p
	}
	if m.size == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if p := m.data.Load(); p != nil {
		return *p
	}
	buf := make([]float32, m.size)
	m.data.Store(&buf)
	return buf
}

// count records one op of n elements issued by rank in rank's own cell.
func (w *World) count(rank int, remote bool, kind opKind, n int) {
	c := &w.traffic[rank].n
	bytes, ops := ctrRemoteGet+int(kind), ctrRemoteOps
	if !remote {
		bytes, ops = ctrLocalGet+int(kind), ctrLocalOps
	}
	c[ops].Add(1)
	c[bytes].Add(int64(n) * 4)
}

// opKind selects a byte counter; the order matches the ctr* constants.
type opKind int

const (
	opGet opKind = iota
	opPut
	opAccum
)

// The stripe locks of a rankMem guard concurrent accumulates into one
// rank's copy of a segment. Striping by offset block lets accumulates into
// disjoint regions of a large tile proceed in parallel, approximating the
// fine-grained atomics of the paper's GPU accumulate kernel; keeping a set
// per (segment, rank) means accumulates to different ranks never meet.
//
// Accumulates are applied one stripe block at a time (lockBlocks): a range
// spanning several blocks is split into per-block critical sections rather
// than acquiring every stripe at once, so a large accumulate never blocks
// the whole segment and two spanning accumulates interleave block-by-block
// instead of serializing end-to-end. Element-wise atomicity — the only
// guarantee a commutative `+=` reduction needs, and the one the paper's GPU
// atomic-add kernel provides — is preserved; whole-range atomicity is not,
// exactly as on real hardware. TestAccumulateStripeStress race-tests the
// no-lost-update invariant across same-stripe collisions, spanning ranges,
// strided blocks and the get+put path.
//
// Why 16 stripes: accumulate concurrency into one rank's copy is bounded
// by the world size times the per-PE chain concurrency (Config.MaxInflight,
// default 4), and worlds in this in-process runtime are node-scale (8–12
// PEs, the Table 2 systems). 16 stripes keep the expected collision rate
// for disjoint-block accumulates low at that concurrency, and with
// block-chunked acquisition there is no whole-set path left to pay for.
const (
	numStripes  = 16
	stripeBlock = 4096 // float32s per stripe block
)

// lockBlocks is the one locking routine under every accumulate. It walks
// the rows×cols block at offset (row stride `stride`; a contiguous range
// is one row) and invokes f(lo, hi, r) for each piece [lo, hi) of row r
// that lies in one stripe block, holding that block's mutex during the
// call. The mutex is kept across consecutive pieces — and rows — of the
// same block and exchanged only when the walk crosses into another, so an
// op takes one critical section per stripe block it spans, not one per
// row. Only one stripe is ever held at a time, so no acquisition ordering
// is needed and a spanning accumulate cannot deadlock or convoy the whole
// segment. It returns the number of acquisitions.
func (m *rankMem) lockBlocks(offset, stride, rows, cols int, f func(lo, hi, r int)) (acquired int64) {
	var mu *sync.Mutex
	held := -1
	for r := 0; r < rows; r++ {
		for lo, end := offset+r*stride, offset+r*stride+cols; lo < end; {
			blk := lo / stripeBlock
			if blk != held {
				if mu != nil {
					mu.Unlock()
				}
				mu = &m.stripes[blk%numStripes]
				mu.Lock()
				held = blk
				acquired++
			}
			hi := min((blk+1)*stripeBlock, end)
			f(lo, hi, r)
			lo = hi
		}
	}
	if mu != nil {
		mu.Unlock()
	}
	return acquired
}
