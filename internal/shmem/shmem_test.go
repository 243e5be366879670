package shmem

import (
	"sync/atomic"
	"testing"
	"time"

	rt "slicing/internal/runtime"
)

func TestWorldBasics(t *testing.T) {
	w := NewWorld(4)
	if w.NumPE() != 4 {
		t.Fatalf("NumPE = %d", w.NumPE())
	}
	seg := w.AllocSymmetric(16)
	if w.SegmentLen(seg) != 16 {
		t.Fatalf("SegmentLen = %d", w.SegmentLen(seg))
	}
}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) should panic")
		}
	}()
	NewWorld(0)
}

func TestRunAllRanksExecute(t *testing.T) {
	w := NewWorld(8)
	var seen [8]atomic.Bool
	w.Run(func(pe rt.PE) {
		if pe.NumPE() != 8 {
			t.Errorf("NumPE inside body = %d", pe.NumPE())
		}
		seen[pe.Rank()].Store(true)
	})
	for r := range seen {
		if !seen[r].Load() {
			t.Fatalf("rank %d did not run", r)
		}
	}
}

func TestPutThenGet(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(4)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Put([]float32{1, 2, 3, 4}, seg, 1, 0)
		}
		pe.Barrier()
		if pe.Rank() == 1 {
			local := pe.Local(seg)
			if local[0] != 1 || local[3] != 4 {
				t.Errorf("remote put not visible: %v", local)
			}
		}
		got := make([]float32, 4)
		pe.Get(got, seg, 1, 0)
		if got[2] != 3 {
			t.Errorf("get from rank 1 wrong: %v", got)
		}
	})
}

func TestGetOffsetWindow(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(8)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Put([]float32{10, 11, 12}, seg, 1, 4)
		}
		pe.Barrier()
		dst := make([]float32, 2)
		pe.Get(dst, seg, 1, 5)
		if dst[0] != 11 || dst[1] != 12 {
			t.Errorf("offset get wrong: %v", dst)
		}
	})
}

func TestAccumulateAddConcurrent(t *testing.T) {
	const p = 8
	const iters = 50
	w := NewWorld(p)
	seg := w.AllocSymmetric(4)
	w.Run(func(pe rt.PE) {
		for i := 0; i < iters; i++ {
			pe.AccumulateAdd([]float32{1, 1, 1, 1}, seg, 0, 0)
		}
		pe.Barrier()
		if pe.Rank() == 0 {
			local := pe.Local(seg)
			for i, v := range local {
				if v != p*iters {
					t.Errorf("element %d = %v, want %d", i, v, p*iters)
				}
			}
		}
	})
}

func TestAccumulateAddStridedConcurrent(t *testing.T) {
	const p = 6
	w := NewWorld(p)
	seg := w.AllocSymmetric(16)  // 4x4 tile
	src := []float32{1, 2, 3, 4} // 2x2 block
	w.Run(func(pe rt.PE) {
		// All PEs accumulate the same 2x2 block at (1,1) of rank 0's tile.
		pe.AccumulateAddStrided(src, 2, seg, 0, 1*4+1, 4, 2, 2)
		pe.Barrier()
		if pe.Rank() == 0 {
			local := pe.Local(seg)
			want := map[int]float32{5: p * 1, 6: p * 2, 9: p * 3, 10: p * 4}
			for i, v := range local {
				if v != want[i] {
					t.Errorf("offset %d = %v, want %v", i, v, want[i])
				}
			}
		}
	})
}

func TestStridedGetPut(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(12) // 3x4
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			// Write a 2x2 block into (1,1)..(2,2) of rank 1's 3x4 tile.
			pe.PutStrided([]float32{1, 2, 3, 4}, 2, seg, 1, 1*4+1, 4, 2, 2)
		}
		pe.Barrier()
		dst := make([]float32, 4)
		pe.GetStrided(dst, 2, seg, 1, 1*4+1, 4, 2, 2)
		if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 || dst[3] != 4 {
			t.Errorf("strided round trip wrong: %v", dst)
		}
	})
}

func TestGetAsyncFuture(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(4)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Put([]float32{7, 8, 9, 10}, seg, 1, 0)
		}
		pe.Barrier()
		dst := make([]float32, 4)
		f := pe.GetAsync(dst, seg, 1, 0)
		f.Wait()
		if dst[3] != 10 {
			t.Errorf("async get wrong: %v", dst)
		}
		if !f.Done() {
			t.Error("future should report done after Wait")
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const p = 6
	w := NewWorld(p)
	seg := w.AllocSymmetric(1)
	w.Run(func(pe rt.PE) {
		pe.Put([]float32{float32(pe.Rank() + 1)}, seg, (pe.Rank()+1)%p, 0)
		pe.Barrier()
		// After the barrier, every PE must observe its neighbor's write.
		local := pe.Local(seg)
		want := float32((pe.Rank()-1+p)%p) + 1
		if local[0] != want {
			t.Errorf("rank %d saw %v, want %v", pe.Rank(), local[0], want)
		}
		pe.Barrier()
	})
}

func TestBarrierReusable(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	seg := w.AllocSymmetric(1)
	w.Run(func(pe rt.PE) {
		for round := 0; round < 10; round++ {
			if pe.Rank() == 0 {
				pe.Put([]float32{float32(round)}, seg, p-1, 0)
			}
			pe.Barrier()
			got := make([]float32, 1)
			pe.Get(got, seg, p-1, 0)
			if got[0] != float32(round) {
				t.Errorf("round %d: saw %v", round, got[0])
			}
			pe.Barrier()
		}
	})
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(8)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			dst := make([]float32, 8)
			pe.Get(dst, seg, 1, 0)               // remote: 32 bytes
			pe.Get(dst[:2], seg, 0, 0)           // local: 8 bytes
			pe.AccumulateAdd(dst[:4], seg, 1, 0) // remote accum: 16 bytes
		}
	})
	s := w.Stats()
	if s.RemoteGetBytes != 32 {
		t.Errorf("RemoteGetBytes = %d", s.RemoteGetBytes)
	}
	if s.LocalGetBytes != 8 {
		t.Errorf("LocalGetBytes = %d", s.LocalGetBytes)
	}
	if s.RemoteAccumBytes != 16 {
		t.Errorf("RemoteAccumBytes = %d", s.RemoteAccumBytes)
	}
	if s.RemoteOps != 2 || s.LocalOps != 1 {
		t.Errorf("ops = %d remote, %d local", s.RemoteOps, s.LocalOps)
	}
	w.ResetStats()
	if w.Stats().RemoteGetBytes != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	w := NewWorld(1)
	seg := w.AllocSymmetric(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Get should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		dst := make([]float32, 8)
		pe.Get(dst, seg, 0, 0)
	})
}

func TestAccumulateOutOfRangePanics(t *testing.T) {
	w := NewWorld(1)
	seg := w.AllocSymmetric(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AccumulateAdd should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		pe.AccumulateAdd(make([]float32, 2), seg, 0, 3)
	})
}

func TestUnknownSegmentPanics(t *testing.T) {
	w := NewWorld(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown segment should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		pe.Get(make([]float32, 1), SegmentID(99), 0, 0)
	})
}

func TestInvalidRankPanics(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(4)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid rank should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Get(make([]float32, 1), seg, 5, 0)
		}
	})
}

func TestPanicInOneRankPropagatesWithoutDeadlock(t *testing.T) {
	w := NewWorld(4)
	defer func() {
		if recover() == nil {
			t.Fatal("panic in PE body should propagate from Run")
		}
	}()
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 2 {
			panic("boom")
		}
		pe.Barrier() // would deadlock without barrier poisoning
	})
}

func TestWorldReusableAfterPanic(t *testing.T) {
	w := NewWorld(3)
	func() {
		defer func() { recover() }()
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				panic("first run dies")
			}
			pe.Barrier()
		})
	}()
	// The barrier must be reset so a subsequent Run works.
	var ran atomic.Int32
	w.Run(func(pe rt.PE) {
		pe.Barrier()
		ran.Add(1)
	})
	if ran.Load() != 3 {
		t.Fatalf("second Run executed %d ranks", ran.Load())
	}
}

func TestSymmetricSegmentsIndependentPerPE(t *testing.T) {
	w := NewWorld(3)
	seg := w.AllocSymmetric(2)
	w.Run(func(pe rt.PE) {
		local := pe.Local(seg)
		local[0] = float32(pe.Rank())
		pe.Barrier()
		for r := 0; r < pe.NumPE(); r++ {
			got := make([]float32, 1)
			pe.Get(got, seg, r, 0)
			if got[0] != float32(r) {
				t.Errorf("segment on rank %d holds %v", r, got[0])
			}
		}
	})
}

func TestCollectiveAllocSameSegment(t *testing.T) {
	w := NewWorld(4)
	segs := make([]SegmentID, 4)
	w.Run(func(pe rt.PE) {
		// Two collective allocations per PE, in the same order everywhere.
		s1 := pe.AllocSymmetric(8)
		s2 := pe.AllocSymmetric(16)
		segs[pe.Rank()] = s1
		if s1 == s2 {
			t.Errorf("distinct collective allocations must differ")
		}
		// Data written through the collective segment is visible world-wide.
		local := pe.Local(s2)
		local[0] = float32(pe.Rank())
		pe.Barrier()
		got := make([]float32, 1)
		pe.Get(got, s2, (pe.Rank()+1)%4, 0)
		if got[0] != float32((pe.Rank()+1)%4) {
			t.Errorf("rank %d read %v from neighbor", pe.Rank(), got[0])
		}
	})
	for r := 1; r < 4; r++ {
		if segs[r] != segs[0] {
			t.Fatalf("collective allocation differs across ranks: %v", segs)
		}
	}
}

func TestCollectiveAllocSizeMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched collective sizes should panic")
		}
	}()
	w.Run(func(pe rt.PE) {
		pe.AllocSymmetric(4 + pe.Rank()) // ranks disagree on size
	})
}

// The get+put accumulate (inter-node path, §3) must be exactly equivalent
// to the atomic-add path, including when both are used concurrently on the
// same region.
func TestAccumulateGetPutEquivalent(t *testing.T) {
	const p = 8
	const iters = 25
	w := NewWorld(p)
	seg := w.AllocSymmetric(4)
	w.Run(func(pe rt.PE) {
		for i := 0; i < iters; i++ {
			if (pe.Rank()+i)%2 == 0 {
				pe.AccumulateAdd([]float32{1, 1, 1, 1}, seg, 0, 0)
			} else {
				pe.AccumulateAddGetPut([]float32{1, 1, 1, 1}, seg, 0, 0)
			}
		}
		pe.Barrier()
		if pe.Rank() == 0 {
			for i, v := range pe.Local(seg) {
				if v != p*iters {
					t.Errorf("element %d = %v, want %d", i, v, p*iters)
				}
			}
		}
	})
}

func TestAccumulateGetPutCountsBothDirections(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(8)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.AccumulateAddGetPut(make([]float32, 8), seg, 1, 0)
		}
	})
	s := w.Stats()
	if s.RemoteGetBytes != 32 || s.RemoteAccumBytes != 32 {
		t.Fatalf("get+put accumulate traffic: get=%d accum=%d, want 32/32", s.RemoteGetBytes, s.RemoteAccumBytes)
	}
}

// TestAccumulateStripeStress hammers the striped accumulate locks from many
// PEs into overlapping offsets of one segment: same-stripe collisions,
// stripe-spanning ranges (which take the whole lock set), and the get+put
// path all interleave. Run under -race this is the regression test for the
// 16-stripe design documented on stripedLock; the final sums also prove
// mutual exclusion (a lost update would break them).
func TestAccumulateStripeStress(t *testing.T) {
	const (
		p      = 12
		iters  = 40
		segLen = 3*stripeBlock + 128 // spans several stripe blocks
	)
	w := NewWorld(p)
	seg := w.AllocSymmetric(segLen)
	// Overlapping windows: every PE updates [rank*64, rank*64+2*stripeBlock),
	// so neighbours collide within stripes and long ranges span stripes.
	src := make([]float32, 2*stripeBlock)
	for i := range src {
		src[i] = 1
	}
	w.Run(func(pe rt.PE) {
		off := pe.Rank() * 64
		for i := 0; i < iters; i++ {
			switch i % 3 {
			case 0:
				pe.AccumulateAdd(src, seg, 0, off)
			case 1:
				pe.AccumulateAddGetPut(src, seg, 0, off)
			case 2:
				// Strided write landing in the same region.
				pe.AccumulateAddStrided(src[:256], 16, seg, 0, off, 16, 16, 16)
			}
		}
		pe.Barrier()
		if pe.Rank() == 0 {
			local := pe.Local(seg)
			// Element expected value: sum of contributions of each PE whose
			// window covers it. Full-range ops add 1 per iteration in the
			// window; the strided op covers only the first 256 elements.
			for i := 0; i < segLen; i++ {
				var want float32
				for r := 0; r < p; r++ {
					off := r * 64
					fullOps := (iters+2)/3 + (iters+1)/3 // cases 0 and 1
					strideOps := iters / 3               // case 2
					if i >= off && i < off+2*stripeBlock {
						want += float32(fullOps)
					}
					if i >= off && i < off+256 {
						want += float32(strideOps)
					}
				}
				if local[i] != want {
					t.Fatalf("element %d = %v, want %v (lost update under contention)", i, local[i], want)
					return
				}
			}
		}
	})
}

// Chunked accumulates must be element-wise exact for ranges that are not
// block-aligned and span several stripe blocks, including via the strided
// and get+put paths racing on the same region.
func TestAccumulateChunkedSpanningRanges(t *testing.T) {
	const p = 8
	const n = 2*stripeBlock + 777 // unaligned, spans 3 blocks
	w := NewWorld(p)
	seg := w.AllocSymmetric(n + 13)
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%7) + 1
	}
	w.Run(func(pe rt.PE) {
		if pe.Rank()%2 == 0 {
			pe.AccumulateAdd(src, seg, 0, 13)
		} else {
			pe.AccumulateAddGetPut(src, seg, 0, 13)
		}
		pe.Barrier()
		if pe.Rank() == 0 {
			local := pe.Local(seg)
			for i := 0; i < n; i++ {
				want := float32(p) * (float32(i%7) + 1)
				if local[13+i] != want {
					t.Fatalf("element %d = %v, want %v", i, local[13+i], want)
				}
			}
			if local[0] != 0 || local[12] != 0 {
				t.Fatal("accumulate wrote below its offset")
			}
		}
	})
}

// The accumulate hot paths must not allocate in the steady state: the
// atomic-add path writes in place under per-block locks, and the get+put
// path bounces through a pooled stripe-block scratch buffer.
func TestAccumulatePathsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool sheds items; alloc counts only meaningful without -race")
	}
	w := NewWorld(2)
	seg := w.AllocSymmetric(3 * stripeBlock)
	src := make([]float32, 2*stripeBlock+100) // spans blocks
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		pe.AccumulateAddGetPut(src, seg, 1, 50) // warm the scratch pool
		if allocs := testing.AllocsPerRun(20, func() {
			pe.AccumulateAdd(src, seg, 1, 50)
		}); allocs > 0 {
			t.Errorf("AccumulateAdd allocates %v objects per call, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			pe.AccumulateAddGetPut(src, seg, 1, 50)
		}); allocs > 0 {
			t.Errorf("AccumulateAddGetPut allocates %v objects per call, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			pe.AccumulateAddStrided(src[:1024], 64, seg, 1, 50, 80, 16, 64)
		}); allocs > 0 {
			t.Errorf("AccumulateAddStrided allocates %v objects per call, want 0", allocs)
		}
	})
}

// Run is paid once per multiply and once per served batch. The PE handles
// are built with the world, the panic table only when a rank panics, and the
// run's shared state and per-rank starts are reused from the previous Run,
// so a warm Run allocates nothing.
func TestWorldRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	const p = 4
	w := NewWorld(p)
	var handles [p]rt.PE
	body := func(pe rt.PE) {
		if h := handles[pe.Rank()]; h != nil && h != pe {
			t.Errorf("rank %d got a different PE handle on a later Run", pe.Rank())
		}
		handles[pe.Rank()] = pe
		pe.Barrier()
	}
	w.Run(body)
	if allocs := testing.AllocsPerRun(20, func() { w.Run(body) }); allocs > 0 {
		t.Errorf("Run allocates %v objects per call on %d PEs, want 0", allocs, p)
	}
}

// Runs on one world from different goroutines do not overlap: their ranks
// would share the world's barrier. Each body holds the world for a moment
// and barriers twice; at no time are more than p rank bodies running.
func TestRunCallsDoNotOverlap(t *testing.T) {
	const p, callers = 4, 3
	w := NewWorld(p)
	var running, peak atomic.Int32
	body := func(pe rt.PE) {
		n := running.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		pe.Barrier()
		time.Sleep(time.Millisecond)
		running.Add(-1)
		pe.Barrier()
	}
	done := make(chan struct{})
	for range callers {
		go func() {
			for range 5 {
				w.Run(body)
			}
			done <- struct{}{}
		}()
	}
	for range callers {
		<-done
	}
	if got := peak.Load(); got != p {
		t.Fatalf("%d rank bodies ran at once, want %d", got, p)
	}
}

// AllocSymmetric on a world whose PEs are running — the serving situation,
// a tenant calling NewMatrix mid-flight — must not race with ops on
// earlier segments: ops read the segment table through an atomically
// published pointer, never the slice AllocSymmetric is appending to.
// Meaningful under -race (it failed there before the table was published).
func TestAllocSymmetricWhilePEsAccumulate(t *testing.T) {
	const rounds = 300
	w := NewWorld(2)
	seg := w.AllocSymmetric(8)
	src := []float32{1, 1, 1, 1, 1, 1, 1, 1}
	// The allocator free-runs until the PEs are done; it learns nothing
	// about their progress on the way (that would order the accesses the
	// race detector is here to compare).
	var stop atomic.Bool
	allocated := make(chan SegmentID)
	go func() {
		last := seg
		for last == seg || (!stop.Load() && last < 1<<16) {
			last = w.AllocSymmetric(16)
		}
		allocated <- last
	}()
	w.Run(func(pe rt.PE) {
		for i := 0; i < rounds; i++ {
			pe.AccumulateAdd(src, seg, 0, 0)
			pe.AccumulateAddStrided(src, 4, seg, 1, 0, 4, 2, 4)
			pe.AccumulateAddGetPut(src, seg, 0, 0)
		}
	})
	stop.Store(true)
	if last := <-allocated; last == seg || w.SegmentLen(last) != 16 || w.SegmentLen(seg) != 8 {
		t.Fatalf("after %d concurrent allocations: segment %d holds %d elements, segment %d holds %d; want 16 and 8",
			last-seg, last, w.SegmentLen(last), seg, w.SegmentLen(seg))
	}
	for rank, want := range []float32{4 * rounds, 2 * rounds} {
		for i, v := range w.SegmentStorage(seg, rank) {
			if v != want {
				t.Fatalf("rank %d element %d = %v, want %v", rank, i, v, want)
			}
		}
	}
}

// Strided blocks whose rows straddle stripe-block boundaries, mixed with
// contiguous AccumulateAdd and AccumulateAddGetPut over the same ranges,
// from every PE into one shared rank and into per-PE ranks of the same
// segment: with one critical section per stripe block (not per row) every
// element must still receive every contribution exactly once. Values are
// small integers, so float32 sums are exact.
func TestAccumulateStridedStraddlesStripeBlocks(t *testing.T) {
	const (
		p     = 6
		iters = 3
		rows  = 20
		cols  = 72
		off   = stripeBlock - 37 // the first row already crosses a boundary
		srcSt = cols + 3
	)
	strides := []int{cols, cols + 1, 104, stripeBlock - 1, stripeBlock + 1}
	segLen := off + (rows-1)*(stripeBlock+1) + cols + 5
	w := NewWorld(p)
	seg := w.AllocSymmetric(segLen)
	ones := make([]float32, rows*srcSt)
	for i := range ones {
		ones[i] = 1
	}
	// Every PE sends to rank 0 and to rank 1+rank%(p-1).
	targets := func(rank int) [2]int { return [2]int{0, 1 + rank%(p-1)} }
	senders := make([]float32, p)
	for r := 0; r < p; r++ {
		for _, tgt := range targets(r) {
			senders[tgt]++
		}
	}
	// One sender's contribution to one target, applied serially.
	unit := make([]float32, segLen)
	for _, ds := range strides {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				unit[off+r*ds+c] += 2 // strided src + dense src
			}
		}
		span := (rows-1)*ds + cols
		for i := off; i < off+span; i++ {
			unit[i] += 2 // AccumulateAdd + AccumulateAddGetPut over the block's span
		}
	}
	long := make([]float32, (rows-1)*(stripeBlock+1)+cols)
	for i := range long {
		long[i] = 1
	}
	w.Run(func(pe rt.PE) {
		for it := 0; it < iters; it++ {
			for _, tgt := range targets(pe.Rank()) {
				for _, ds := range strides {
					span := (rows-1)*ds + cols
					pe.AccumulateAddStrided(ones, srcSt, seg, tgt, off, ds, rows, cols)
					pe.AccumulateAdd(long[:span], seg, tgt, off)
					pe.AccumulateAddStrided(ones, cols, seg, tgt, off, ds, rows, cols)
					pe.AccumulateAddGetPut(long[:span], seg, tgt, off)
				}
			}
		}
	})
	for rank := 0; rank < p; rank++ {
		got := w.SegmentStorage(seg, rank)
		for i, u := range unit {
			if want := u * senders[rank] * iters; got[i] != want {
				t.Fatalf("rank %d element %d = %v, want %v (lost or doubled update)", rank, i, got[i], want)
			}
		}
	}
}

// Stripe locks belong to (segment, rank): with rank 0's stripe held — so an
// accumulate into rank 0 is blocked on it — an accumulate into the same
// offsets of rank 1 of the same segment must still complete.
func TestAccumulateRanksShareNoLock(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(64)
	src := make([]float32, 64)
	pe := &PE{world: w, rank: 0}

	held := &w.mem(seg, 0).stripes[0]
	held.Lock()
	blocked := make(chan struct{})
	go func() {
		pe.AccumulateAdd(src, seg, 0, 0)
		close(blocked)
	}()
	other := make(chan struct{})
	go func() {
		pe.AccumulateAdd(src, seg, 1, 0)
		pe.AccumulateAddStrided(src, 8, seg, 1, 0, 8, 8, 8)
		pe.AccumulateAddGetPut(src, seg, 1, 0)
		close(other)
	}()
	select {
	case <-other:
	case <-time.After(10 * time.Second):
		t.Fatal("accumulates into rank 1 wait on rank 0's stripe lock")
	}
	select {
	case <-blocked:
		t.Fatal("accumulate into rank 0 completed while its stripe was held")
	default:
	}
	held.Unlock()
	<-blocked
}

// stripeLocksTaken sums the per-rank stripe-acquisition counters.
func stripeLocksTaken(w *World) (n int64) {
	for r := range w.traffic {
		n += w.traffic[r].n[ctrStripeLocks].Load()
	}
	return n
}

// The contiguous case is decided inside AccumulateAddStrided: a block whose
// rows are adjacent in source and destination is one range and takes one
// critical section per stripe block it spans — a whole 32×32 tile exactly
// one, a whole 72×104 tile (7488 floats) at any offset at most three — and
// a true sub-rectangle takes one per block crossed, not one per row.
func TestAccumulateStridedLockAcquisitions(t *testing.T) {
	w := NewWorld(2)
	seg := w.AllocSymmetric(4 * stripeBlock)
	src := make([]float32, 72*104)
	pe := &PE{world: w, rank: 0}
	taken := func(f func()) int64 {
		before := stripeLocksTaken(w)
		f()
		return stripeLocksTaken(w) - before
	}
	if n := taken(func() { pe.AccumulateAddStrided(src, 32, seg, 1, 1024, 32, 32, 32) }); n != 1 {
		t.Errorf("whole 32x32 tile took %d stripe acquisitions, want 1", n)
	}
	for _, off := range []int{0, 1, stripeBlock - 1, stripeBlock + 700} {
		if n := taken(func() { pe.AccumulateAddStrided(src, 104, seg, 1, off, 104, 72, 104) }); n > 3 {
			t.Errorf("whole 72x104 tile at offset %d took %d stripe acquisitions, want <= 3", off, n)
		}
	}
	// 32 rows of 32 inside a 128-wide tile: 31*128+32 = 4000 floats, one
	// block when aligned, two when it straddles a boundary.
	if n := taken(func() { pe.AccumulateAddStrided(src, 32, seg, 1, 0, 128, 32, 32) }); n != 1 {
		t.Errorf("32x32 sub-rectangle inside one block took %d stripe acquisitions, want 1", n)
	}
	if n := taken(func() { pe.AccumulateAddStrided(src, 32, seg, 1, stripeBlock-2000, 128, 32, 32) }); n != 2 {
		t.Errorf("32x32 sub-rectangle across one boundary took %d stripe acquisitions, want 2", n)
	}
}
