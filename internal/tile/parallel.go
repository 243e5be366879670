package tile

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared-pack parallel GEMM. The PR 3 GemmParallel split C into row bands
// and ran the whole packed kernel per band — so every worker re-packed all
// of B, multiplying the O(k·n) packing traffic by the worker count. Here
// one (pc, jc) B panel is packed exactly once into shared scratch (the
// packing itself split across the crew by strip ranges), then the mc-row A
// panels of that block fan out to the crew: each worker packs its own A
// panel into pooled scratch and streams it over the shared packed B.
// Synchronization is two WaitGroup phases per (pc, jc) block; work is
// pulled from an atomic cursor, so load balance is dynamic and dispatching
// a unit allocates nothing.
//
// The crew is pooled and package-global: goroutines are spawned once
// (lazily, up to the largest worker count requested) and woken by pointer
// sends on a buffered channel, so steady-state GemmParallel calls spawn no
// goroutines and allocate nothing. A woken worker whose pull is rejected
// by the current phase window simply goes back to sleep, which makes stale
// wake-ups after a phase (or call) has finished harmless.

// parPhase is what one fan-out executes: packing a B-panel strip range or
// one A panel's pack+multiply sweep.
type parPhase int8

const (
	phasePackB parPhase = iota
	phasePanels
)

// parState is one in-flight GemmParallel call's shared state. Pooled; a
// worker only touches fields after a pull is admitted by the phase window,
// and runPhase publishes all fields before opening the cursor.
type parState struct {
	kn *kernelImpl
	// Operand headers are stored by value (the Data slices still alias the
	// caller's buffers) so GemmParallel's *Matrix arguments do not escape to
	// the heap: the state itself is pooled and long-lived, and storing a
	// caller pointer into it would force every caller's header (e.g. a
	// stack-built partial-result view) to be heap-allocated.
	c, a, b Matrix
	bp      []float32 // shared packed B panel for the current (pc, jc) block

	// Current (pc, jc) block bounds.
	jc, pc, kc, nc int

	phase      parPhase
	unitStride int // strips (packB) or rows (panels) per unit

	// Phase admission. cursor is monotonic for the life of the state —
	// never reset — with the phase generation in its high 32 bits and the
	// next unit index in its low 32, so a single atomic Add both claims an
	// index and records which phase it was claimed from. window packs the
	// open phase's generation (high bits) and unit count (low bits); a
	// pull is admitted only when its generation matches the window's and
	// its index is below the count. A pull that straddles a phase
	// transition — claimed from the old cursor value, checked against the
	// new window — therefore mismatches on generation and is rejected. (A
	// reset-to-zero cursor cannot give that guarantee: a worker preempted
	// between claiming an index and checking the width could have a stale
	// tail index admitted into a wider next phase once it resumed, running
	// one unit twice and over-signalling the WaitGroup. Generations also
	// cover reuse: the counter survives pooling, so a stale pull against a
	// later GemmParallel call's phases mismatches the same way.)
	cursor atomic.Uint64
	window atomic.Uint64
	wg     sync.WaitGroup
}

// The zero parState is born with generation 0 and a zero-count window, so
// every pull is rejected until the first runPhase opens generation 1.
var parStatePool = sync.Pool{New: func() any { return new(parState) }}

// The pooled crew. crewCh carries wake-up pointers, not work: all work
// assignment happens through the state's cursor.
var (
	crewCh   = make(chan *parState, 1024)
	crewSize atomic.Int64
)

const maxCrew = 256

func crewWorker() {
	for st := range crewCh {
		st.work()
	}
}

// ensureCrew grows the crew to at least n goroutines (capped at maxCrew).
func ensureCrew(n int) {
	if n > maxCrew {
		n = maxCrew
	}
	for {
		cur := crewSize.Load()
		if cur >= int64(n) {
			return
		}
		if crewSize.CompareAndSwap(cur, cur+1) {
			go crewWorker()
		}
	}
}

// work pulls unit indices until the phase window rejects one. Safe to
// call at any time from any goroutine: if no phase is open the first pull
// mismatches the window and it returns immediately. Each index of an open
// window is claimed by exactly one Add (the cursor is monotonic), so no
// unit can run twice and the WaitGroup receives exactly one Done per unit.
func (st *parState) work() {
	for {
		v := st.cursor.Add(1) - 1
		w := st.window.Load()
		if v>>32 != w>>32 || uint32(v) >= uint32(w) {
			return
		}
		st.runUnit(int(uint32(v)))
		st.wg.Done()
	}
}

func (st *parState) runUnit(u int) {
	switch st.phase {
	case phasePackB:
		strips := (st.nc + st.kn.nr - 1) / st.kn.nr
		s0 := u * st.unitStride
		s1 := min(s0+st.unitStride, strips)
		packBStrips(st.bp, &st.b, st.pc, st.jc, st.kc, st.nc, st.kn.nr, s0, s1)
	case phasePanels:
		lo := u * st.unitStride
		hi := min(lo+st.unitStride, st.a.Rows)
		s := gemmScratchPool.Get().(*gemmScratch)
		bp := packedB(st.bp, st.kc, st.nc, st.kn.nr)
		bStrips := (st.nc + st.kn.nr - 1) / st.kn.nr
		// A unit may span several mc blocks (when there are few workers);
		// multiply them one at a time to keep a packed A panel L2-resident.
		for ic := lo; ic < hi; ic += st.kn.mc {
			mc := min(st.kn.mc, hi-ic)
			ap := s.panelA(&st.a, ic, st.pc, mc, st.kc, bStrips, st.kn.mr)
			gemmPanels(&st.c, &ap, &bp, &s.acc, ic, st.jc, mc, st.nc, st.kc, st.kn)
		}
		gemmScratchPool.Put(s)
	}
}

// runPhase opens a fan-out of units work items, wakes up to workers-1 crew
// members, helps from the calling goroutine, and waits for completion.
func (st *parState) runPhase(phase parPhase, units, unitStride, workers int) {
	if units <= 0 {
		return
	}
	st.phase = phase
	st.unitStride = unitStride
	st.wg.Add(units)
	// Open the next generation: the window store publishes the fields
	// above before any pull can be admitted (seq-cst atomics), and stale
	// pulls claimed from the pre-store cursor carry the old generation, so
	// they can never be admitted — or consume an index — in this phase.
	// Index overflow into the generation bits would take 2^32 pulls in one
	// phase; pulls are bounded by units plus one rejected pull per work()
	// invocation, and invocations by the crew size plus the wake-up
	// channel's capacity.
	gen := (st.cursor.Load()>>32 + 1) << 32
	st.window.Store(gen | uint64(uint32(units)))
	st.cursor.Store(gen)
	for i := 0; i < workers-1 && i < units-1; i++ {
		select {
		case crewCh <- st:
		default: // crew backlogged; the caller and already-woken workers cover it
		}
	}
	st.work()
	st.wg.Wait()
	// No parking needed between phases: every index below the closed
	// window's count has been claimed (wg.Wait returned), so later pulls
	// on this generation exceed the count and are rejected.
}

// GemmParallel computes C += A*B with the packed kernel parallelized
// inside one PE across workers goroutines (0 means GOMAXPROCS): B panels
// are packed once and shared, A panels fan out to the pooled crew. Small
// products fall back to the single-goroutine Gemm.
func GemmParallel(c, a, b *Matrix, workers int) {
	checkGemmShapes(c, a, b)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	kn := activeKern
	if workers > maxCrew+1 {
		workers = maxCrew + 1
	}
	// Below one A panel per extra worker the fan-out cannot win: fall back.
	if workers <= 1 || m*k*n < 64*64*64 || m <= kn.mr {
		Gemm(c, a, b)
		return
	}
	ensureCrew(workers - 1)

	st := parStatePool.Get().(*parState)
	st.kn = kn
	st.c, st.a, st.b = *c, *a, *b

	// Shared packed-B scratch: one panel, sized to the largest (the first)
	// and reused across (pc, jc) blocks.
	bs := gemmScratchPool.Get().(*gemmScratch)
	bs.b = grow(bs.b, min(kn.kc, k)*((min(kn.nc, n)+kn.nr-1)/kn.nr)*kn.nr)
	st.bp = bs.b

	// Panel rows per fan-out unit: at least mc, grown so there are no more
	// than ~2 units per worker (keeps A-pack overhead amortized while
	// leaving slack for dynamic balance).
	unitRows := kn.mc
	for (m+unitRows-1)/unitRows > 2*workers {
		unitRows += kn.mc
	}

	for jc := 0; jc < n; jc += kn.nc {
		st.jc = jc
		st.nc = min(kn.nc, n-jc)
		for pc := 0; pc < k; pc += kn.kc {
			st.pc = pc
			st.kc = min(kn.kc, k-pc)

			// Phase 1: pack this B panel once, splitting its strips
			// across the crew in ~8-strip chunks.
			packBPanels.Add(1)
			strips := (st.nc + kn.nr - 1) / kn.nr
			const stripChunk = 8
			st.runPhase(phasePackB, (strips+stripChunk-1)/stripChunk, stripChunk, workers)

			// Phase 2: fan the A panels of this block out over the
			// shared packed B.
			st.runPhase(phasePanels, (m+unitRows-1)/unitRows, unitRows, workers)
		}
	}

	st.bp = nil
	st.c, st.a, st.b = Matrix{}, Matrix{}, Matrix{}
	gemmScratchPool.Put(bs)
	parStatePool.Put(st)
}

// gemmParallelRowBands is the PR 3 row-band parallel path, kept unexported
// as the benchmark baseline that shows the shared-pack win: every band
// re-packs all of B, so its packB panel count scales with the worker
// count.
func gemmParallelRowBands(c, a, b *Matrix, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := a.Rows
	if workers > m {
		workers = m
	}
	if workers <= 1 || m*a.Cols*b.Cols < 64*64*64 {
		Gemm(c, a, b)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, m)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			cv := c.View(lo, 0, hi-lo, c.Cols)
			av := a.View(lo, 0, hi-lo, a.Cols)
			Gemm(cv, av, b)
		}(lo, hi)
	}
	wg.Wait()
}
