package main

import (
	rt "slicing/internal/runtime"
)

// tracedWorld is the timing decorator for runtime.World: it records an
// activation span around every Run, a pe span around every rank body, and
// a get / put / accum / barrier span around every one-sided operation the
// body issues. It measures the layers from outside, the way
// internal/chaos injects faults from outside, so no program file changes.
//
// World() returns the decorator itself, so matrices allocated through it
// report it as their world and the serving layer's operand validation and
// PlansOf key on it.
type tracedWorld struct {
	inner rt.World
	tr    *tracer
}

func newTracedWorld(inner rt.World, tr *tracer) *tracedWorld {
	return &tracedWorld{inner: inner, tr: tr}
}

func (w *tracedWorld) NumPE() int                        { return w.inner.NumPE() }
func (w *tracedWorld) AllocSymmetric(n int) rt.SegmentID { return w.inner.AllocSymmetric(n) }
func (w *tracedWorld) World() rt.World                   { return w }
func (w *tracedWorld) SegmentLen(seg rt.SegmentID) int   { return w.inner.SegmentLen(seg) }
func (w *tracedWorld) Stats() rt.Stats                   { return w.inner.Stats() }
func (w *tracedWorld) ResetStats()                       { w.inner.ResetStats() }

func (w *tracedWorld) SegmentStorage(seg rt.SegmentID, rank int) []float32 {
	return w.inner.SegmentStorage(seg, rank)
}

func (w *tracedWorld) Run(body func(pe rt.PE)) {
	seq := w.tr.acts.Add(1)
	act := w.tr.begin(kindActivation, -1, w.tr.root, seq)
	w.inner.Run(func(inner rt.PE) {
		pe := &tracedPE{inner: inner, w: w, seq: seq}
		pe.id = w.tr.begin(kindPE, inner.Rank(), act, seq)
		body(pe)
		w.tr.end(pe.id, 0)
	})
	w.tr.end(act, 0)
}

// tracedPE decorates one rank's handle for the duration of one Run.
type tracedPE struct {
	inner rt.PE
	w     *tracedWorld
	id    int32 // the rank body's pe span
	seq   int32
}

func (p *tracedPE) begin(kind spanKind) int32 {
	return p.w.tr.begin(kind, p.inner.Rank(), p.id, p.seq)
}

func (p *tracedPE) Rank() int                         { return p.inner.Rank() }
func (p *tracedPE) NumPE() int                        { return p.inner.NumPE() }
func (p *tracedPE) World() rt.World                   { return p.w }
func (p *tracedPE) AllocSymmetric(n int) rt.SegmentID { return p.inner.AllocSymmetric(n) }
func (p *tracedPE) Local(seg rt.SegmentID) []float32  { return p.inner.Local(seg) }

func (p *tracedPE) Barrier() {
	s := p.begin(kindBarrier)
	p.inner.Barrier()
	p.w.tr.end(s, 0)
}

func (p *tracedPE) Get(dst []float32, seg rt.SegmentID, remote, offset int) {
	s := p.begin(kindGet)
	p.inner.Get(dst, seg, remote, offset)
	p.w.tr.end(s, 4*int64(len(dst)))
}

func (p *tracedPE) Put(src []float32, seg rt.SegmentID, remote, offset int) {
	s := p.begin(kindPut)
	p.inner.Put(src, seg, remote, offset)
	p.w.tr.end(s, 4*int64(len(src)))
}

func (p *tracedPE) AccumulateAdd(src []float32, seg rt.SegmentID, remote, offset int) {
	s := p.begin(kindAccum)
	p.inner.AccumulateAdd(src, seg, remote, offset)
	p.w.tr.end(s, 4*int64(len(src)))
}

func (p *tracedPE) AccumulateAddGetPut(src []float32, seg rt.SegmentID, remote, offset int) {
	s := p.begin(kindAccum)
	p.inner.AccumulateAddGetPut(src, seg, remote, offset)
	p.w.tr.end(s, 4*int64(len(src)))
}

func (p *tracedPE) GetStrided(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) {
	s := p.begin(kindGet)
	p.inner.GetStrided(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
	p.w.tr.end(s, 4*int64(rows)*int64(cols))
}

func (p *tracedPE) PutStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	s := p.begin(kindPut)
	p.inner.PutStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
	p.w.tr.end(s, 4*int64(rows)*int64(cols))
}

func (p *tracedPE) AccumulateAddStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	s := p.begin(kindAccum)
	p.inner.AccumulateAddStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
	p.w.tr.end(s, 4*int64(rows)*int64(cols))
}

// The asynchronous variants complete at issue on the in-process backend,
// so the span around the call is the copy.

func (p *tracedPE) GetAsync(dst []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	s := p.begin(kindGet)
	f := p.inner.GetAsync(dst, seg, remote, offset)
	p.w.tr.end(s, 4*int64(len(dst)))
	return f
}

func (p *tracedPE) GetStridedAsync(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) rt.Future {
	s := p.begin(kindGet)
	f := p.inner.GetStridedAsync(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
	p.w.tr.end(s, 4*int64(rows)*int64(cols))
	return f
}

func (p *tracedPE) AccumulateAddAsync(src []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	s := p.begin(kindAccum)
	f := p.inner.AccumulateAddAsync(src, seg, remote, offset)
	p.w.tr.end(s, 4*int64(len(src)))
	return f
}

var (
	_ rt.World = (*tracedWorld)(nil)
	_ rt.PE    = (*tracedPE)(nil)
)
