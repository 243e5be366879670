package gpubackend

import rt "slicing/internal/runtime"

// pe is a timed processing element: every one-sided operation delegates
// the real data movement to the embedded shmem PE and appends its modeled
// counterpart, priced now, to this PE's log, tagged with the issuing host
// thread.
type pe struct {
	rt.PE
	w    *World
	rank int
	lane int32
}

// World returns the timed world, satisfying runtime.Allocator.
func (p *pe) World() rt.World { return p.w }

// HostThread returns the handle of this rank's host thread i
// (runtime.HostThreader): ops issued through it advance thread i's clock
// only, so chains an executor runs on several goroutines overlap in the
// schedule. A future's Wait orders every later op of the rank after the
// awaited op, whichever thread issues it.
func (p *pe) HostThread(i int) rt.PE {
	if int32(i) == p.lane {
		return p
	}
	return &pe{PE: p.PE, w: p.w, rank: p.rank, lane: int32(i)}
}

// record appends r, issued on this host thread, to the PE's log.
func (p *pe) record(r record) int32 {
	r.lane = p.lane
	return p.w.record(p.rank, r)
}

// transfer records an n-element get from remote or put to remote.
func (p *pe) transfer(kind recKind, remote, n int, sync bool) int32 {
	src, dst := remote, p.rank
	if kind == recPut {
		src, dst = dst, src
	}
	return p.record(record{kind: kind, sync: sync, peer: int32(remote), bytes: 4 * int64(n),
		dur: p.w.sys.Fetch(src, dst, 4*n)})
}

// accum records an n-element accumulate into remote: the §3 get+put
// round trip when getPut is set, the accumulate kernel otherwise.
func (p *pe) accum(remote, n int, getPut, sync bool) int32 {
	r := record{kind: recAccum, sync: sync, peer: int32(remote), bytes: 4 * int64(n)}
	if getPut {
		r.kind, r.dur, r.dur2 = recGetPut, p.w.sys.Fetch(remote, p.rank, 4*n), p.w.sys.Fetch(p.rank, remote, 4*n)
	} else {
		r.dur = p.w.sys.Accum(p.rank, remote, 4*n)
	}
	return p.record(r)
}

func (p *pe) Get(dst []float32, seg rt.SegmentID, remote, offset int) {
	p.PE.Get(dst, seg, remote, offset)
	p.transfer(recGet, remote, len(dst), true)
}

func (p *pe) Put(src []float32, seg rt.SegmentID, remote, offset int) {
	p.PE.Put(src, seg, remote, offset)
	p.transfer(recPut, remote, len(src), true)
}

// AccumulateAdd is atomic within a node. Across a node boundary it is
// automatically rerouted through the §3 coarse-lock get+put scheme and
// priced as the round trip it is.
func (p *pe) AccumulateAdd(src []float32, seg rt.SegmentID, remote, offset int) {
	p.accum(remote, len(src), p.accumulate(src, seg, remote, offset), true)
}

// accumulate moves the data of an accumulate into remote: atomically
// within a node, by the §3 get+put across a node boundary, which it
// reports.
func (p *pe) accumulate(src []float32, seg rt.SegmentID, remote, offset int) (getPut bool) {
	if getPut = p.w.sys.CrossNode(p.rank, remote); getPut {
		p.PE.AccumulateAddGetPut(src, seg, remote, offset)
	} else {
		p.PE.AccumulateAdd(src, seg, remote, offset)
	}
	return getPut
}

// AccumulateAddGetPut is the inter-node path (§3): priced as the full
// get + put round trip it performs on RDMA-only fabrics, the put gated on
// the get as the coarse lock requires.
func (p *pe) AccumulateAddGetPut(src []float32, seg rt.SegmentID, remote, offset int) {
	p.PE.AccumulateAddGetPut(src, seg, remote, offset)
	p.accum(remote, len(src), true, true)
}

func (p *pe) GetStrided(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) {
	p.PE.GetStrided(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
	p.transfer(recGet, remote, rows*cols, true)
}

func (p *pe) PutStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	p.PE.PutStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
	p.transfer(recPut, remote, rows*cols, true)
}

// AccumulateAddStrided crosses a node boundary as per-row get+put round
// trips on the data path (each destination row is contiguous), priced as
// one rows×cols round trip — and, unlike the atomic path, no accumulate
// kernel lands on the victim's compute engine.
func (p *pe) AccumulateAddStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	getPut := p.w.sys.CrossNode(p.rank, remote)
	if getPut {
		for r := 0; r < rows; r++ {
			p.PE.AccumulateAddGetPut(src[r*srcStride:r*srcStride+cols], seg, remote, offset+r*dstStride)
		}
	} else {
		p.PE.AccumulateAddStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
	}
	p.accum(remote, rows*cols, getPut, true)
}

// GetAsync performs the copy immediately (any moment between issue and Wait
// is a legal completion time for a one-sided read, and the source region is
// stable under the algorithms' barrier discipline) but records the modeled
// DMA as asynchronous: it starts at the host clock of issue and charges
// the host only at Wait. Back-to-back async gets queue on the copy-in
// engines, so prefetch depth beyond what they can absorb surfaces as queue
// delay.
func (p *pe) GetAsync(dst []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	p.PE.Get(dst, seg, remote, offset)
	return &future{p: p, ref: p.transfer(recGet, remote, len(dst), false)}
}

func (p *pe) GetStridedAsync(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) rt.Future {
	p.PE.GetStrided(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
	return &future{p: p, ref: p.transfer(recGet, remote, rows*cols, false)}
}

// AccumulateAddAsync starts the accumulate (or, across a node boundary,
// the §3 round trip) at issue; only Wait charges it to the host clock.
func (p *pe) AccumulateAddAsync(src []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	return &future{p: p, ref: p.accum(remote, len(src), p.accumulate(src, seg, remote, offset), false)}
}

// Barrier synchronizes real execution and records the barrier: in the
// schedule every PE's host clock after it is the latest any PE had on
// entry, the semantics a hardware barrier has for wall time. Device
// engines keep their schedules — an accumulate still in flight on a
// victim's compute engine keeps occupying it across the barrier, which is
// exactly how a kernel launched before a host-side barrier behaves.
func (p *pe) Barrier() {
	p.record(record{kind: recBarrier})
	p.PE.Barrier()
}

// ElapseGemm records a roofline-priced m×n×k GEMM on this device's compute
// engine (runtime.GemmTimer). The kernel serializes behind whatever else
// occupies the compute engine — earlier GEMMs, local accumulate kernels,
// and, on interference devices, remote accumulates other PEs launched into
// this device — and the host waits for it.
func (p *pe) ElapseGemm(m, n, k int) {
	p.record(record{kind: recGemm, sync: true, dur: p.w.sys.Gemm(m, n, k)})
}

// future is an already-materialized transfer; waiting records that the
// host waits for its modeled completion.
type future struct {
	p   *pe
	ref int32
}

func (f *future) Wait() { f.p.record(record{kind: recWait, ref: f.ref}) }

// Done reports data completion, which on this backend is immediate (the
// copy happens at issue); only Wait charges the modeled completion time.
// Returning true keeps backend-portable polling loops terminating.
func (f *future) Done() bool { return true }
