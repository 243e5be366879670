package shmem

import (
	"fmt"
	"sync"

	rt "slicing/internal/runtime"
	"slicing/internal/tile"
)

// getPutScratch pools the bounce buffer of AccumulateAddGetPut. Chunked
// accumulation bounds each critical section to one stripe block, so a
// single stripeBlock-sized buffer (16 KiB) serves any request size and the
// hot path performs no allocation.
var getPutScratch = sync.Pool{
	New: func() any {
		buf := make([]float32, stripeBlock)
		return &buf
	},
}

// PE is a processing element's handle to the world. The world builds one per
// rank and hands the same one to every Run body of that rank; it is only
// valid inside a Run body and must not be shared across ranks.
type PE struct {
	world *World
	rank  int
}

// Rank returns this PE's rank in [0, NumPE).
func (pe *PE) Rank() int { return pe.rank }

// NumPE returns the world size.
func (pe *PE) NumPE() int { return pe.world.numPE }

// World returns the world this PE belongs to, satisfying runtime.Allocator.
func (pe *PE) World() rt.World { return pe.world }

// Local returns this PE's local storage for a segment. The returned slice
// aliases symmetric memory; other PEs may read or accumulate into it at any
// time, so callers must coordinate with barriers before assuming quiescence.
func (pe *PE) Local(seg SegmentID) []float32 {
	return pe.world.storage(seg, pe.rank)
}

// Get copies n = len(dst) elements starting at offset from the segment on
// the remote rank into dst. This is the one-sided remote read primitive.
func (pe *PE) Get(dst []float32, seg SegmentID, remote, offset int) {
	src := pe.world.storage(seg, remote)
	checkRange("Get", seg, remote, offset, len(dst), len(src))
	copy(dst, src[offset:offset+len(dst)])
	pe.count(remote, opGet, len(dst))
}

// Put copies src into the segment on the remote rank starting at offset.
// This is the one-sided remote write primitive.
func (pe *PE) Put(src []float32, seg SegmentID, remote, offset int) {
	dst := pe.world.storage(seg, remote)
	checkRange("Put", seg, remote, offset, len(src), len(dst))
	copy(dst[offset:offset+len(src)], src)
	pe.count(remote, opPut, len(src))
}

// count records an op this PE issued against rank remote.
func (pe *PE) count(remote int, kind opKind, n int) {
	pe.world.count(pe.rank, remote != pe.rank, kind, n)
}

// AccumulateAdd atomically adds src element-wise into the segment on the
// remote rank starting at offset. The update is applied one stripe block at
// a time: accumulates into disjoint blocks proceed in parallel and spanning
// accumulates interleave block-by-block, mirroring the element-wise
// atomicity of the paper's GPU atomic accumulate kernel.
func (pe *PE) AccumulateAdd(src []float32, seg SegmentID, remote, offset int) {
	mem := pe.world.mem(seg, remote)
	dst := mem.storage(pe.world)
	checkRange("AccumulateAdd", seg, remote, offset, len(src), len(dst))
	pe.accumulate(mem, dst, src, len(src), remote, offset, len(src), 1, len(src))
}

// accumulate adds the rows×cols block src (row stride srcStride) into dst,
// rank remote's array behind mem, at offset (row stride dstStride) — one
// critical section per stripe block the block spans — and counts the op.
// The caller has checked the ranges.
func (pe *PE) accumulate(mem *rankMem, dst, src []float32, srcStride, remote, offset, dstStride, rows, cols int) {
	locks := mem.lockBlocks(offset, dstStride, rows, cols, func(lo, hi, r int) {
		at := r*srcStride + lo - (offset + r*dstStride)
		tile.AddInto(dst[lo:hi], src[at:at+hi-lo])
	})
	pe.world.traffic[pe.rank].n[ctrStripeLocks].Add(locks)
	pe.count(remote, opAccum, rows*cols)
}

// AccumulateAddGetPut accumulates src into a remote region using the
// paper's inter-node scheme (§3): lock a block of the target range,
// remote-get the current values, add locally, and remote-put the result —
// the path used when the interconnect offers RDMA get/put but no remote
// atomics. The round trip is performed per stripe block under that block's
// lock, so it is element-wise equivalent to AccumulateAdd (both serialize
// through the target rank's stripe locks and the two paths can be mixed
// safely); the performance model charges it a full round trip. The bounce
// buffer is pooled, never allocated per call.
func (pe *PE) AccumulateAddGetPut(src []float32, seg SegmentID, remote, offset int) {
	mem := pe.world.mem(seg, remote)
	dst := mem.storage(pe.world)
	checkRange("AccumulateAddGetPut", seg, remote, offset, len(src), len(dst))
	scratch := getPutScratch.Get().(*[]float32)
	tmp := *scratch
	locks := mem.lockBlocks(offset, len(src), 1, len(src), func(lo, hi, _ int) {
		t := tmp[:hi-lo]
		copy(t, dst[lo:hi])                       // remote get
		tile.AddInto(t, src[lo-offset:hi-offset]) // local add
		copy(dst[lo:hi], t)                       // remote put
	})
	getPutScratch.Put(scratch)
	pe.world.traffic[pe.rank].n[ctrStripeLocks].Add(locks)
	pe.count(remote, opGet, len(src))
	pe.count(remote, opAccum, len(src))
}

// GetStrided copies a rows×cols block with the given row strides between a
// remote segment region and dst. It is the 2-D variant of Get used when a
// sub-tile (not a full tile) must be fetched.
func (pe *PE) GetStrided(dst []float32, dstStride int, seg SegmentID, remote, offset, srcStride, rows, cols int) {
	src := pe.world.storage(seg, remote)
	checkStrided("GetStrided", seg, remote, offset, srcStride, rows, cols, len(src))
	for r := 0; r < rows; r++ {
		copy(dst[r*dstStride:r*dstStride+cols], src[offset+r*srcStride:offset+r*srcStride+cols])
	}
	pe.count(remote, opGet, rows*cols)
}

// PutStrided writes a rows×cols block from src into a remote segment region.
func (pe *PE) PutStrided(src []float32, srcStride int, seg SegmentID, remote, offset, dstStride, rows, cols int) {
	dst := pe.world.storage(seg, remote)
	checkStrided("PutStrided", seg, remote, offset, dstStride, rows, cols, len(dst))
	for r := 0; r < rows; r++ {
		copy(dst[offset+r*dstStride:offset+r*dstStride+cols], src[r*srcStride:r*srcStride+cols])
	}
	pe.count(remote, opPut, rows*cols)
}

// AccumulateAddStrided atomically adds a rows×cols block from src into a
// remote segment region. When the rows are adjacent in both source and
// destination the block is one contiguous range and is accumulated exactly
// like AccumulateAdd — this is the one place that is decided, so callers
// (distmat's whole-tile and sub-tile accumulates, the timed backends, the
// chaos decorator) need not. Otherwise the rows are walked under one
// critical section per stripe block the block spans; row gaps inside a
// held block ride along, gaps are never written.
func (pe *PE) AccumulateAddStrided(src []float32, srcStride int, seg SegmentID, remote, offset, dstStride, rows, cols int) {
	mem := pe.world.mem(seg, remote)
	dst := mem.storage(pe.world)
	checkStrided("AccumulateAddStrided", seg, remote, offset, dstStride, rows, cols, len(dst))
	if srcStride == cols && dstStride == cols {
		srcStride, dstStride, rows, cols = rows*cols, rows*cols, 1, rows*cols
	}
	pe.accumulate(mem, dst, src, srcStride, remote, offset, dstStride, rows, cols)
}

// GetAsync performs the one-sided read and returns an already-completed
// Future. It models the host-initiated asynchronous tile copy
// (get_tile_async in Table 1); in this in-process backend a remote get is a
// memcpy, so performing it at issue time and returning the shared completed
// future is both legal under the contract (any moment between issue and
// Wait) and cheaper than a goroutine-and-channel future per fetch — the
// same choice the gpubackend PEs make.
func (pe *PE) GetAsync(dst []float32, seg SegmentID, remote, offset int) rt.Future {
	pe.Get(dst, seg, remote, offset)
	return rt.CompletedFuture()
}

// GetStridedAsync is the asynchronous strided get; see GetAsync for the
// completion semantics.
func (pe *PE) GetStridedAsync(dst []float32, dstStride int, seg SegmentID, remote, offset, srcStride, rows, cols int) rt.Future {
	pe.GetStrided(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
	return rt.CompletedFuture()
}

// AccumulateAddAsync is the asynchronous accumulate; see GetAsync for the
// completion semantics.
func (pe *PE) AccumulateAddAsync(src []float32, seg SegmentID, remote, offset int) rt.Future {
	pe.AccumulateAdd(src, seg, remote, offset)
	return rt.CompletedFuture()
}

// Barrier blocks until every PE in the world has entered the barrier.
func (pe *PE) Barrier() { pe.world.barrier.await() }

// AllocSymmetric performs a collective symmetric allocation from inside a
// PE body, with OpenSHMEM shmem_malloc semantics: every PE must call it in
// the same order with the same size, and the k-th call on every rank
// returns the same world-wide SegmentID. The first rank to reach call k
// creates the segment; the others adopt it.
func (pe *PE) AllocSymmetric(n int) SegmentID {
	w := pe.world
	w.collMu.Lock()
	defer w.collMu.Unlock()
	seq := w.peAllocSeq[pe.rank]
	w.peAllocSeq[pe.rank]++
	if seq == len(w.collSegs) {
		w.collSegs = append(w.collSegs, w.AllocSymmetric(n))
	} else if seq > len(w.collSegs) {
		panic(fmt.Sprintf("shmem: rank %d collective allocation %d ahead of world (%d created)",
			pe.rank, seq, len(w.collSegs)))
	}
	seg := w.collSegs[seq]
	if got := w.SegmentLen(seg); got != n {
		panic(fmt.Sprintf("shmem: mismatched collective allocation %d: rank %d wants %d elements, world created %d",
			seq, pe.rank, n, got))
	}
	return seg
}

func checkRange(op string, seg SegmentID, remote, offset, n, segLen int) {
	if offset < 0 || n < 0 || offset+n > segLen {
		panic(fmt.Sprintf("shmem: %s out of range: seg %d pe %d offset %d len %d (segment holds %d)",
			op, seg, remote, offset, n, segLen))
	}
}

func checkStrided(op string, seg SegmentID, remote, offset, stride, rows, cols, segLen int) {
	if rows < 0 || cols < 0 || offset < 0 || stride < cols {
		panic(fmt.Sprintf("shmem: %s invalid block: offset %d stride %d rows %d cols %d", op, offset, stride, rows, cols))
	}
	if rows > 0 && offset+(rows-1)*stride+cols > segLen {
		panic(fmt.Sprintf("shmem: %s out of range: seg %d pe %d offset %d stride %d rows %d cols %d (segment holds %d)",
			op, seg, remote, offset, stride, rows, cols, segLen))
	}
}
