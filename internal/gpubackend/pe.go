package gpubackend

import (
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
)

// pe is a stream/event-timed processing element: every one-sided operation
// delegates the real data movement to the inner shmem PE and enqueues its
// modeled counterpart on the device engines involved.
type pe struct {
	inner rt.PE
	w     *World
	rank  int
}

func (p *pe) Rank() int  { return p.rank }
func (p *pe) NumPE() int { return p.w.NumPE() }

// World returns the timed world, satisfying runtime.Allocator.
func (p *pe) World() rt.World { return p.w }

// AllocSymmetric performs a collective symmetric allocation (free in the
// timing model, as allocation is in the real runtimes' setup phase).
func (p *pe) AllocSymmetric(n int) rt.SegmentID { return p.inner.AllocSymmetric(n) }

// Local returns the zero-copy view of this PE's segment storage. Reading
// through it is device-local and free, like dereferencing HBM.
func (p *pe) Local(seg rt.SegmentID) []float32 { return p.inner.Local(seg) }

// enqueueGet models an n-element get from remote on one of this PE's
// copy-in engines (plus the route's fabric links, or the legacy port pair,
// when the source is another device) and returns its completion event.
// waits, when valid, gates the DMA on earlier modeled work (the §3
// get-before-put ordering).
func (p *pe) enqueueGet(remote, n int, waits ...gpusim.Event) gpusim.Event {
	w := p.w
	op := gpusim.StreamOp{
		Label: "get", Kind: gpusim.OpComm,
		NotBefore: w.PETime(p.rank),
		Duration:  w.sys.Fetch(remote, p.rank, 4*n),
		Waits:     waits,
		Resources: w.netResources(remote, p.rank, 4*n),
	}
	return w.nextCopyIn(p.rank).Enqueue(op)
}

// enqueuePut models an n-element put to remote on one of this PE's
// copy-out engines plus the route's network resources.
func (p *pe) enqueuePut(remote, n int, waits ...gpusim.Event) gpusim.Event {
	w := p.w
	op := gpusim.StreamOp{
		Label: "put", Kind: gpusim.OpComm,
		NotBefore: w.PETime(p.rank),
		Duration:  w.sys.Fetch(p.rank, remote, 4*n),
		Waits:     waits,
		Resources: w.netResources(p.rank, remote, 4*n),
	}
	return w.nextCopyOut(p.rank).Enqueue(op)
}

// enqueueAccum models an n-element accumulate into remote. A local
// accumulate is a kernel on this device's own compute stream. A remote
// accumulate moves data through one of this PE's copy-out engines and the
// route's network resources; on devices that model accumulate/GEMM
// interference (§5.2) the accumulate kernel additionally occupies the
// *target's* compute engine for its whole duration, delaying the victim's
// own GEMMs.
func (p *pe) enqueueAccum(remote, n int) float64 {
	w := p.w
	dur := w.sys.Accum(p.rank, remote, 4*n)
	op := gpusim.StreamOp{
		Label: "accum", Kind: gpusim.OpAccum,
		NotBefore: w.PETime(p.rank),
		Duration:  dur,
	}
	if remote == p.rank {
		return w.compute[p.rank].Enqueue(op).Time()
	}
	op.Resources = w.netResources(p.rank, remote, 4*n)
	if w.sys.Dev.AccumComputeInterference {
		op.Resources = append(op.Resources, w.compute[remote].Resource())
		w.noteInterference(dur)
	}
	return w.nextCopyOut(p.rank).Enqueue(op).Time()
}

// enqueueAccumGetPut models the §3 inter-node accumulate: a get of the
// remote region, then — gated on the get's completion event, as the
// coarse lock requires — a put of the summed result. It returns the put's
// completion time.
func (p *pe) enqueueAccumGetPut(remote, n int) float64 {
	get := p.enqueueGet(remote, n)
	return p.enqueuePut(remote, n, get).Time()
}

func (p *pe) Get(dst []float32, seg rt.SegmentID, remote, offset int) {
	p.inner.Get(dst, seg, remote, offset)
	p.w.hostAdvanceTo(p.rank, p.enqueueGet(remote, len(dst)).Time())
}

func (p *pe) Put(src []float32, seg rt.SegmentID, remote, offset int) {
	p.inner.Put(src, seg, remote, offset)
	p.w.hostAdvanceTo(p.rank, p.enqueuePut(remote, len(src)).Time())
}

func (p *pe) AccumulateAdd(src []float32, seg rt.SegmentID, remote, offset int) {
	if p.w.sys.CrossNode(p.rank, remote) {
		// §3: across a node boundary the RDMA fabric offers no remote
		// atomics, so the accumulate is automatically rerouted through the
		// coarse-lock get+put scheme and priced as the round trip it is.
		p.AccumulateAddGetPut(src, seg, remote, offset)
		return
	}
	p.inner.AccumulateAdd(src, seg, remote, offset)
	p.w.hostAdvanceTo(p.rank, p.enqueueAccum(remote, len(src)))
}

// AccumulateAddGetPut is the inter-node path (§3): priced as the full
// get + put round trip it performs on RDMA-only fabrics, the put's stream
// op gated on the get's completion event as the coarse lock requires.
func (p *pe) AccumulateAddGetPut(src []float32, seg rt.SegmentID, remote, offset int) {
	p.inner.AccumulateAddGetPut(src, seg, remote, offset)
	p.w.hostAdvanceTo(p.rank, p.enqueueAccumGetPut(remote, len(src)))
}

func (p *pe) GetStrided(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) {
	p.inner.GetStrided(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
	p.w.hostAdvanceTo(p.rank, p.enqueueGet(remote, rows*cols).Time())
}

func (p *pe) PutStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	p.inner.PutStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
	p.w.hostAdvanceTo(p.rank, p.enqueuePut(remote, rows*cols).Time())
}

func (p *pe) AccumulateAddStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	if p.w.sys.CrossNode(p.rank, remote) {
		// §3 applies to strided accumulates too: per-row get+put round
		// trips on the data path (each destination row is contiguous),
		// priced as one rows×cols round trip — and, unlike the atomic
		// path, no accumulate kernel lands on the victim's compute stream.
		for r := 0; r < rows; r++ {
			p.inner.AccumulateAddGetPut(src[r*srcStride:r*srcStride+cols], seg, remote, offset+r*dstStride)
		}
		p.w.hostAdvanceTo(p.rank, p.enqueueAccumGetPut(remote, rows*cols))
		return
	}
	p.inner.AccumulateAddStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
	p.w.hostAdvanceTo(p.rank, p.enqueueAccum(remote, rows*cols))
}

// GetAsync performs the copy immediately (any moment between issue and Wait
// is a legal completion time for a one-sided read, and the source region is
// stable under the algorithms' barrier discipline) but enqueues the modeled
// DMA now — at the host clock of issue — and defers the clock charge to
// Wait. Back-to-back async gets queue on the copy-in engine, so prefetch
// depth beyond what the engine can absorb surfaces as queue delay.
func (p *pe) GetAsync(dst []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	p.inner.Get(dst, seg, remote, offset)
	return &streamFuture{w: p.w, rank: p.rank, end: p.enqueueGet(remote, len(dst)).Time()}
}

func (p *pe) GetStridedAsync(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) rt.Future {
	p.inner.GetStrided(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
	return &streamFuture{w: p.w, rank: p.rank, end: p.enqueueGet(remote, rows*cols).Time()}
}

func (p *pe) AccumulateAddAsync(src []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	if p.w.sys.CrossNode(p.rank, remote) {
		// §3 inter-node path, asynchronous flavour: the get DMA is enqueued
		// at issue and the put is event-gated on it; only Wait charges the
		// round trip to the host clock.
		p.inner.AccumulateAddGetPut(src, seg, remote, offset)
		return &streamFuture{w: p.w, rank: p.rank, end: p.enqueueAccumGetPut(remote, len(src))}
	}
	p.inner.AccumulateAdd(src, seg, remote, offset)
	return &streamFuture{w: p.w, rank: p.rank, end: p.enqueueAccum(remote, len(src))}
}

// Barrier synchronizes real execution and host clocks: after the barrier
// every PE's host clock is the maximum any PE had on entry, the semantics a
// hardware barrier has for wall time. Device engines keep their schedules —
// an accumulate still in flight on a victim's compute stream keeps
// occupying it across the barrier, which is exactly how a kernel launched
// before a host-side barrier behaves.
func (p *pe) Barrier() {
	w := p.w
	w.mu.Lock()
	w.snapshot[p.rank] = w.host[p.rank]
	w.mu.Unlock()
	p.inner.Barrier() // all snapshots published
	w.mu.Lock()
	worst := 0.0
	for _, c := range w.snapshot {
		if c > worst {
			worst = c
		}
	}
	if worst > w.host[p.rank] {
		w.host[p.rank] = worst
	}
	w.mu.Unlock()
	p.inner.Barrier() // all clocks synced before anyone re-publishes
}

// ElapseGemm enqueues a roofline-priced m×n×k GEMM on this device's compute
// stream (runtime.GemmTimer). The kernel serializes behind whatever else
// occupies the compute engine — earlier GEMMs, local accumulate kernels,
// and, on interference devices, remote accumulates other PEs launched into
// this device — and the host clock advances to its completion.
func (p *pe) ElapseGemm(m, n, k int) {
	w := p.w
	end := w.compute[p.rank].Enqueue(gpusim.StreamOp{
		Label: "gemm", Kind: gpusim.OpCompute,
		NotBefore: w.PETime(p.rank),
		Duration:  w.sys.Gemm(m, n, k),
	}).Time()
	w.hostAdvanceTo(p.rank, end)
}

// streamFuture is an already-materialized transfer whose modeled completion
// time is end; waiting advances the waiter's host clock to it.
type streamFuture struct {
	w    *World
	rank int
	end  float64
}

func (f *streamFuture) Wait() { f.w.hostAdvanceTo(f.rank, f.end) }

// Done reports data completion, which on this backend is immediate (the
// copy happens at issue); only Wait charges the modeled completion time.
// Returning true keeps backend-portable polling loops terminating.
func (f *streamFuture) Done() bool { return true }
