package universal

import (
	"sync"
	"sync/atomic"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/tile"
)

// Config tunes the direct-execution engine of §4.2.
type Config struct {
	// Stationary selects the data movement strategy; StationaryAuto picks
	// the largest matrix.
	Stationary Stationary
	// PrefetchDepth is how many steps ahead tile fetches are issued
	// (get_tile_async). The paper prefetches the next two tiles.
	PrefetchDepth int
	// MaxInflight bounds concurrent GEMM+accumulate chains, the paper's
	// configurable concurrency limit trading asynchrony for memory.
	MaxInflight int
	// CacheTiles bounds the recently-fetched tile cache used for reuse
	// across consecutive ops. It also bounds the executor's resident tile
	// buffers: a fetched tile's buffer returns to the pool when the
	// plan-time LRU would have evicted it.
	CacheTiles int
	// SubTileFetch switches to the bandwidth-optimal fetch mode: each op
	// pulls only its exact (M,K)/(K,N) slices instead of whole tiles. It
	// saves bytes for misaligned tilings and replicated stationary
	// matrices, but gives up cross-op tile reuse (see the fetch-mode
	// ablation benchmark).
	SubTileFetch bool
	// Pool supplies scratch buffers for partial results and fetched tiles;
	// nil allocates one internally.
	Pool *gpusim.Pool
	// Plans is the cache the multiplies find the problem's CompiledPlan in:
	// a hit executes the precompiled per-rank plan and fetch schedule
	// directly (zero slicing work, zero additional allocations), a miss
	// compiles once for the whole world and caches the result. Nil means
	// the world's shared cache, PlansOf(pe.World()).
	Plans *PlanCache
	// SyncReplicas re-broadcasts the reduced C so every replica holds the
	// final result. The paper's algorithm only reduces, into replica 0;
	// enabling this adds a broadcast_replica for API convenience.
	SyncReplicas bool
	// Retry budgets recovery from one-sided op faults on fault-capable
	// backends: per-op attempts, backoff, and the per-op deadline
	// (docs/RESILIENCE.md). The zero value selects the defaults.
	Retry RetryConfig
	// Exclude names ranks this multiply assigns no work — the shrunken
	// world of PE-loss recovery (docs/RESILIENCE.md). Excluded ranks still
	// call the collective and participate in its barriers and reductions
	// (their memory stays reachable); their ops are adopted round-robin by
	// the surviving ranks. Entries must be valid ranks and at least one
	// rank must survive. The set is part of the PlanKey, so exclusion
	// plans are ordinary PlanCache entries; pass it sorted and
	// duplicate-free (runtime.Membership.Excluded's form) to keep
	// PlanKeyOf allocation-free.
	Exclude []int
}

// DefaultConfig mirrors the paper's direct-execution settings: prefetch
// depth 2 and a small bounded accumulate/GEMM concurrency.
func DefaultConfig() Config {
	return Config{
		Stationary:    StationaryAuto,
		PrefetchDepth: 2,
		MaxInflight:   4,
		CacheTiles:    DefaultCacheTiles,
	}
}

func (cfg Config) withDefaults() Config {
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 2
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.CacheTiles <= 0 {
		cfg.CacheTiles = DefaultCacheTiles
	}
	if cfg.Pool == nil {
		cfg.Pool = gpusim.NewPool()
	}
	cfg.Retry = cfg.Retry.withDefaults()
	return cfg
}

// Multiply computes C = A·B with the universal one-sided algorithm,
// zeroing C first. Collective: every PE of the world must call it with the
// same arguments. It returns the resolved stationary strategy and the
// first fatal one-sided fault of this rank's slice of the work, nil on
// fault-free backends. An erroring rank still participates in every
// collective (the crew drains, the barrier and replica reduction run), so
// a fault never wedges the world — but its C contribution is incomplete,
// so the result is only meaningful when every rank returns nil.
func Multiply(pe rt.PE, c, a, b *distmat.Matrix, cfg Config) (Stationary, error) {
	prob := NewProblem(c, a, b)
	c.Zero(pe) // includes a barrier
	return MultiplyAccumulate(pe, prob, cfg)
}

// MultiplyAccumulate computes C += A·B assuming C already holds the values
// to accumulate onto (zeroed for a plain product). Collective. It is the
// whole pipeline on a batch of one: compile (memoized in the plan cache —
// built once per world on a miss, zero slicing work on a hit), execute,
// finish. Error semantics are Multiply's.
func MultiplyAccumulate(pe rt.PE, prob Problem, cfg Config) (Stationary, error) {
	cfg = cfg.withPlans(pe)
	probs, cps := [1]Problem{prob}, [1]*CompiledPlan{cfg.Plans.GetOrCompile(prob, cfg)}
	err := execute(pe, probs[:], cps[:], cfg, nil)
	Finish(pe, probs[:], cfg)
	return cps[0].Key.Stationary, err
}

// withPlans is withDefaults for an entry point that compiles: a nil Plans
// becomes the world's shared cache, so a plain Multiply compiles once per
// world like every other caller.
func (cfg Config) withPlans(pe rt.PE) Config {
	if cfg.Plans == nil {
		cfg.Plans = PlansOf(pe.World())
	}
	return cfg.withDefaults()
}

// Finish is the collective epilogue of the multiplies a rank just executed:
// one barrier — every one-sided update must land before any C is read —
// then, for each replicated C, the replica reduction into replica 0 and the
// optional re-broadcast. It runs outside the executor's fault scope, so it
// proceeds (and stays barrier-matched across ranks) even after an execution
// error; the reduced values are only meaningful if no rank failed.
func Finish(pe rt.PE, probs []Problem, cfg Config) {
	pe.Barrier()
	for _, prob := range probs {
		if prob.C.Replication() > 1 {
			prob.C.ReduceReplicas(pe, 0)
			if cfg.SyncReplicas {
				prob.C.BroadcastReplica(pe, 0)
			}
		}
	}
}

// tileSlot is one fetched buffer with its in-flight future and a reference
// count. A slot is born with one reference for its scheduled residency
// (fetchSchedule.evictions says when that ends); every step reading the
// buffer takes a reference when it is assembled into a chain and drops it
// when the chain retires. When the count reaches zero — the residency has
// ended and no in-flight chain still reads the buffer — the buffer returns
// to the pool for the next fetch.
type tileSlot struct {
	fut  distmat.TileFuture
	mat  tile.Matrix
	buf  []float32
	pool *gpusim.Pool
	refs atomic.Int32
}

// release drops one reference, recycling the buffer on the last one.
// Releasing a slot whose fetch was never issued is a no-op.
func (s *tileSlot) release() {
	if s.refs.Add(-1) == 0 && s.buf != nil {
		s.pool.Put(s.buf)
		s.buf = nil
	}
}

// stepState is the executor's per-step storage: the slots of the step's own
// A and B fetches, its sliced operand views, and the slots that serve its
// operands (nil for a local tile), on which the step's chain holds a
// reference from assembly until it retires. One zeroed array per execute
// call, cut across the batch's plans, so fetching and slicing allocate
// nothing per step.
type stepState struct {
	a, b         tileSlot
	aView, bView tile.Matrix
	aSlot, bSlot *tileSlot
}

// chainTask names one ready GEMM→accumulate chain: steps [first, first+n)
// of f's plan, n-1 of them Chained to their successor, issued on host
// thread lane (see feeder.dispatch). Everything else the chain needs —
// problem, views, slots — is reached through f, so one crew serves a fused
// batch of multiplies and a dispatch moves four words. The zero task tells
// a helper to stop.
type chainTask struct {
	f              *feeder
	first, n, lane int
}

// crew is what one execute call needs: its feeders, the hand-off channel,
// the helpers' WaitGroup, the abort flag, and the backing array of every
// feeder's stepState. Records are recycled through crewPool, so a warm
// execute allocates none of it; no goroutine outlives the call.
//
// box is the abort flag: whoever fails fatally (a chain's accumulate after
// its retry budget, a fetch issue) publishes the error, and every chain
// dispatched afterwards is skipped — its slot references still released so
// pooled buffers balance. The feeder polls the same box and stops
// assembling chains.
type crew struct {
	pe  rt.PE
	cfg Config
	// tasks is unbuffered, so a non-blocking send lands only in a helper
	// already parked on the receive.
	tasks chan chainTask
	wg    sync.WaitGroup
	box   errBox
	// feeders and steps are grow-only and all zero between calls.
	feeders []feeder
	steps   []stepState
	// start is help bound to the record once, so starting a helper is a go
	// statement on an argument-free func value, which allocates nothing;
	// started numbers the helpers as they come up.
	start   func()
	started atomic.Uint64
	// chains counts the chains the feeders dispatched, numbering their
	// host-thread lanes.
	chains int
	// retired is Execute's report of a plan whose chains on this rank have
	// all retired; nil reports nothing.
	retired func(i int)
}

var crewPool = sync.Pool{New: func() any {
	c := &crew{tasks: make(chan chainTask)}
	c.start = c.help
	return c
}}

// help is one helper's loop: run chains until the stop task arrives.
func (c *crew) help() {
	defer c.wg.Done()
	ret := newRetrier(c.cfg.Retry, uint64(c.pe.Rank())<<16|c.started.Add(1))
	for t := <-c.tasks; t.f != nil; t = <-c.tasks {
		t.f.runChain(t.first, t.n, t.lane, &ret)
	}
}

// execute is the one executor: it runs this rank's slice of every plan in
// cps, each on the matching problem in probs, through a single crew with
// the §4.2 optimizations — iteration offset (already baked into the op
// order), prefetching via get_tile_async, asynchronous GEMM→accumulate
// chains with bounded concurrency, and pooled scratch memory. Multiply
// passes one plan, the serving layer a fused batch; a plan reordered by CompileOrdered is the same steps in another
// order and runs here unchanged.
//
// The unit of dispatch is the chain the plan marked (Step.Chained): the
// calling goroutine walks each plan as the feeder, and hands a ready chain
// to one of MaxInflight-1 helpers if one is idle, else runs it itself — so
// at most MaxInflight chains are in flight per PE (§4.2's configurable
// limit), MaxInflight 1 starts no goroutine, and a dispatch never parks the
// feeder. A rank whose slices hold no step takes no crew and starts no
// helper: in a fused batch of small multiplies most ranks own nothing. The
// loop is allocation-free in the steady state. cfg must already have defaults
// applied; the plans' schedules are read-only, so concurrent
// executions of one CompiledPlan share them. No collective synchronization
// happens here; callers Finish afterwards.
//
// The run is bracketed in a fault scope with the configured per-op
// deadline: on fault-capable backends this is the recoverable region
// (injected faults fire only here, retried per Config.Retry), and the
// collectives around it stay fault-free so ranks never diverge on barrier
// counts. The returned error is the rank's first fatal one-sided fault
// (after per-op retries), which stops dispatch across all of cps; every
// pooled buffer is back in the pool either way.
func execute(pe rt.PE, probs []Problem, cps []*CompiledPlan, cfg Config, retired func(i int)) error {
	rank := pe.Rank()
	total := 0
	for _, cp := range cps {
		total += len(cp.Plans[rank].Steps)
	}
	if total == 0 {
		return nil
	}
	rt.PushFaultScope(pe)
	defer rt.PopFaultScope(pe)
	rt.SetOpDeadline(pe, cfg.Retry.OpTimeout)
	defer rt.SetOpDeadline(pe, 0)

	c := crewPool.Get().(*crew)
	c.pe, c.cfg, c.retired = pe, cfg, retired
	if cap(c.feeders) < len(cps) {
		c.feeders = make([]feeder, len(cps))
	}
	if cap(c.steps) < total {
		c.steps = make([]stepState, total)
	}
	work, rest := c.feeders[:len(cps)], c.steps[:total]
	for i, cp := range cps {
		f := &work[i]
		f.prob, f.plan, f.sched, f.idx = probs[i], cp.Plans[rank], &cp.scheds[rank], i
		n := len(f.plan.Steps)
		f.steps, rest = rest[:n:n], rest[n:]
	}
	helpers := cfg.MaxInflight - 1
	c.wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go c.start()
	}
	fed := 0
	for ; fed < len(work) && c.box.err() == nil; fed++ {
		work[fed].feed(c)
	}
	for w := 0; w < helpers; w++ {
		c.tasks <- chainTask{} // each helper takes exactly one and exits
	}
	c.wg.Wait()
	// Residual residencies are dropped only now, on this goroutine, so the
	// final pool returns never race chain releases mid-execution.
	for i := range work[:fed] {
		work[i].finish()
	}
	err := c.box.err()
	// The record goes back holding no reference to this call's buffers,
	// pool or world.
	clear(work)
	clear(c.steps[:total])
	c.pe, c.cfg, c.retired = nil, Config{}, nil
	c.box.p.Store(nil)
	c.started.Store(0)
	c.chains = 0
	crewPool.Put(c)
	return err
}

// feeder walks one per-rank plan, issuing prefetches and assembling its
// steps into ready GEMM→accumulate chains. execute fills the first four
// fields and steps; the rest is the walk's state. It owns the plan's slot
// array, whose refcounts keep pooled buffers alive until the last in-flight
// chain using them retires — which is why a feeder outlives its feed call
// and execute can feed further plans to the same crew before this one's
// chains drain.
type feeder struct {
	prob  Problem
	plan  Plan
	sched *fetchSchedule
	idx   int // the plan's index in the execute call, for crew.retired

	c     *crew
	ret   retrier // the feeder goroutine's own: fetch issues and the chains it runs itself
	steps []stepState
	// Local-tile view headers, one per operand (reused across steps) so a
	// step with two local tiles never aliases them.
	aLocal, bLocal tile.Matrix
	evicted        int // cursor into sched.evictions
	// pending is chainBias plus the chains dispatched (added when the walk
	// ends) minus the chains retired: it reaches zero exactly once, on the
	// last retirement after the walk, whichever goroutine makes it.
	pending atomic.Int64
}

// feed walks the plan's steps in order: issue the fetches PrefetchDepth
// ahead, take each operand's slot reference and view, retire the
// residencies that ended, and dispatch at every unchained step the chain it
// closes. Fetch issues run under the retry budget; a fatal failure (or one
// published by a chain) stops the walk at that step, and the references of
// a chain still being assembled are dropped here since nobody will run it.
// Already-issued fetches are safe to abandon — every backend completes the
// data movement of an async get at issue time — so finish returns their
// buffers to the pool unconditionally.
func (f *feeder) feed(c *crew) {
	f.c = c
	depth := c.cfg.PrefetchDepth
	f.ret = newRetrier(c.cfg.Retry, uint64(c.pe.Rank())<<16|0xfeed)
	c.box.set(f.issueFetches(0, 1+depth))
	f.pending.Store(chainBias)
	first, i, chains := 0, 0, 0 // the chain being assembled is steps [first, i)
	for ; i < len(f.plan.Steps) && c.box.err() == nil; i++ {
		if err := f.issueFetches(i+1+depth, i+2+depth); err != nil {
			c.box.set(err)
			break
		}
		s, st := &f.plan.Steps[i], &f.steps[i]
		st.aSlot = f.slot(fetchRef{f.sched.srcA[i], 'A'})
		st.bSlot = f.slot(fetchRef{f.sched.srcB[i], 'B'})
		f.operand(f.prob.A, st.aSlot, s.Op.AIdx, s.aRect(), s.SubTile, &f.aLocal, &st.aView)
		f.operand(f.prob.B, st.bSlot, s.Op.BIdx, s.bRect(), s.SubTile, &f.bLocal, &st.bView)
		// Retire buffers whose scheduled residency ended at this step; the
		// chains still reading them hold their own references.
		for ; f.evicted < len(f.sched.evictions) && f.sched.evictions[f.evicted].atStep == i; f.evicted++ {
			f.slot(f.sched.evictions[f.evicted].ref).release()
		}
		if !s.Chained {
			f.dispatch(chainTask{f: f, first: first, n: i + 1 - first, lane: c.chains % c.cfg.MaxInflight})
			c.chains++
			chains++
			first = i + 1
		}
	}
	f.release(first, i)
	if chains > 0 && f.pending.Add(int64(chains)-chainBias) == 0 {
		f.retire()
	}
}

// chainBias holds a feeder's pending count above zero while its walk may
// still dispatch chains; no plan has this many.
const chainBias = 1 << 40

// retire reports the plan's last chain on this rank retired, unless the
// run has been aborted: then some chain of the batch may not have run.
func (f *feeder) retire() {
	if f.c.retired != nil && f.c.box.err() == nil {
		f.c.retired(f.idx)
	}
}

// dispatch hands a ready chain to an idle helper, or runs it on the feeder's
// own goroutine when none is parked on the channel. The fetches of the next
// PrefetchDepth steps are already issued either way, so get/compute overlap
// on asynchronous backends does not depend on who runs the chain.
//
// Chains are numbered in dispatch order and the k-th one is issued on host
// thread k mod MaxInflight (runtime.HostThread), whichever goroutine runs
// it: a backend that models host threads sees MaxInflight chains overlap,
// thread 0 shared with the feeder's fetches, independent of which helper
// happened to be idle. MaxInflight 1 issues everything on the PE itself.
func (f *feeder) dispatch(t chainTask) {
	select {
	case f.c.tasks <- t:
	default:
		f.runChain(t.first, t.n, t.lane, &f.ret)
	}
}

// runChain runs steps [first, first+n) as one chain on the calling
// goroutine — a helper or the feeder — issuing on host thread lane, unless
// the run has been aborted, and retires the chain's slot references either
// way. The plan's last retirement reports it (feeder.retire).
func (f *feeder) runChain(first, n, lane int, ret *retrier) {
	if box := &f.c.box; box.err() == nil {
		box.set(f.gemmChain(rt.HostThread(f.c.pe, lane), first, n, ret))
	}
	f.release(first, first+n)
	if f.pending.Add(-1) == 0 {
		f.retire()
	}
}

// release drops the slot references steps [from, to) took at assembly.
func (f *feeder) release(from, to int) {
	for i := from; i < to; i++ {
		st := &f.steps[i]
		if st.aSlot != nil {
			st.aSlot.release()
		}
		if st.bSlot != nil {
			st.bSlot.release()
		}
	}
}

// finish drops every residency feed did not get to. All fetches, issued or
// not, appear in the eviction list, and releasing an unissued slot is a
// no-op, so the walk is correct on the abort path as well.
func (f *feeder) finish() {
	for ; f.evicted < len(f.sched.evictions); f.evicted++ {
		f.slot(f.sched.evictions[f.evicted].ref).release()
	}
}

// slot returns the slot of the named fetch, nil for the schedule's "local
// operand, no fetch" marker (step < 0).
func (f *feeder) slot(ref fetchRef) *tileSlot {
	switch {
	case ref.step < 0:
		return nil
	case ref.mat == 'A':
		return &f.steps[ref.step].a
	}
	return &f.steps[ref.step].b
}

// aRect / bRect are the op's operand rectangles in global coordinates.
func (s *Step) aRect() index.Rect { return index.Rect{Rows: s.Op.M, Cols: s.Op.K} }
func (s *Step) bRect() index.Rect { return index.Rect{Rows: s.Op.K, Cols: s.Op.N} }

// issueFetches starts the async copies needed by steps [from, to), each
// into a recycled pooled buffer, retrying transient issue failures.
func (f *feeder) issueFetches(from, to int) error {
	for i := from; i < to && i < len(f.plan.Steps); i++ {
		s, st := &f.plan.Steps[i], &f.steps[i]
		if s.FetchA {
			if err := f.issueFetch(&st.a, f.prob.A, s.Op.AIdx, s.aRect(), s.SubTile); err != nil {
				return err
			}
		}
		if s.FetchB {
			if err := f.issueFetch(&st.b, f.prob.B, s.Op.BIdx, s.bRect(), s.SubTile); err != nil {
				return err
			}
		}
	}
	return nil
}

// issueFetch starts one async copy into s: the whole tile, or in sub-tile
// mode exactly the operand rectangle want — the only thing the two fetch
// modes disagree on.
func (f *feeder) issueFetch(s *tileSlot, m *distmat.Matrix, idx index.TileIdx, want index.Rect, subTile bool) error {
	rect := want
	if !subTile {
		rect = m.TileBounds(idx)
	}
	rows, cols := rect.Shape()
	s.pool = f.c.cfg.Pool
	s.buf = s.pool.GetUninit(rows * cols)
	s.mat = tile.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: s.buf}
	s.refs.Store(1) // the scheduled residency
	return f.ret.do(func() {
		if subTile {
			m.GetSubTileIntoAsync(f.c.pe, &s.fut, &s.mat, idx, distmat.LocalReplica, want)
		} else {
			m.GetTileIntoAsync(f.c.pe, &s.fut, &s.mat, idx, distmat.LocalReplica)
		}
	})
}

// operand resolves one operand of a step into view, sliced to want: from a
// zero-copy view of the local tile (slot nil), or from the buffer the fetch
// in slot lands in, taking the chain's reference on it. The copy may still
// be in flight; the chain waits for it right before the GEMM that reads it.
func (f *feeder) operand(m *distmat.Matrix, slot *tileSlot, idx index.TileIdx, want index.Rect, subTile bool, localView, view *tile.Matrix) {
	base, held := localView, m.TileBounds(idx)
	if slot == nil {
		m.TileInto(f.c.pe, localView, idx, distmat.LocalReplica)
	} else {
		slot.refs.Add(1)
		base = &slot.mat
		if subTile {
			held = want // a sub-tile fetch holds exactly the operand
		}
	}
	base.ViewInto(view, want.Rows.Begin-held.Rows.Begin, want.Cols.Begin-held.Cols.Begin, want.Rows.Len(), want.Cols.Len())
}

// gemmChain is the GEMM→accumulate chain of §4.2 over steps [first,
// first+n), which all write the same C rectangle: every step's sliced
// operands are multiplied into one zeroed pooled partial (the kernels
// compute C += A·B), each step waiting for its own fetches only right
// before the GEMM that reads them so the first GEMM of a chain never waits
// for the last fetch, and the sum is atomically accumulated into C once.
// It performs no heap allocation in the steady state: the partial lives in a
// pooled buffer and its header on the stack. The accumulate runs under
// ret's retry budget; a fatal fault comes back as an error with the partial
// already back in the pool.
func (f *feeder) gemmChain(pe rt.PE, first, n int, ret *retrier) error {
	cfg := &f.c.cfg
	op := f.plan.Steps[first].Op
	rows, cols := op.M.Len(), op.N.Len()
	buf := cfg.Pool.Get(rows * cols)
	partial := tile.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: buf}
	for i := first; i < first+n; i++ {
		st := &f.steps[i]
		if st.aSlot != nil {
			st.aSlot.fut.Wait()
		}
		if st.bSlot != nil {
			st.bSlot.fut.Wait()
		}
		tile.Gemm(&partial, &st.aView, &st.bView)
		rt.ChargeGemm(pe, rows, cols, f.plan.Steps[i].Op.K.Len())
	}
	err := ret.do(func() {
		f.prob.C.AccumulateSubTile(pe, op.CIdx, distmat.LocalReplica, subRect(op), &partial)
	})
	cfg.Pool.Put(buf)
	return err
}

func subRect(op LocalOp) (r index.Rect) {
	r.Rows = op.M
	r.Cols = op.N
	return r
}
