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
	// KernelWorkers parallelizes each local GEMM inside the PE across this
	// many goroutines (tile.GemmParallel's shared-pack crew). 1 (or 0, the
	// default) keeps local GEMMs single-threaded, leaving MaxInflight as the
	// only concurrency axis; set it when PEs are few and cores are many, so
	// a single large per-step GEMM can use the whole socket.
	KernelWorkers int
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
	// Plans, when non-nil, makes Multiply/MultiplyAccumulate look up the
	// problem's CompiledPlan in this cache instead of re-running the §4.1
	// slicing pass per call: a hit executes the precompiled per-rank plan
	// and fetch schedule directly (zero slicing work, zero additional
	// allocations), a miss compiles once for the whole world and caches
	// the result. Use PlansOf(world) for the world's shared cache. Nil
	// preserves the per-rank rebuild-every-call behaviour.
	Plans *PlanCache
	// ReduceOrigin is the replica partial C results are reduced into when C
	// is replicated.
	ReduceOrigin int
	// SyncReplicas re-broadcasts the reduced C so every replica holds the
	// final result. The paper's algorithm only reduces; enabling this adds
	// a broadcast_replica for API convenience.
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
	if cfg.KernelWorkers <= 0 {
		cfg.KernelWorkers = 1
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
// whole pipeline on a batch of one: compile (memoized in cfg.Plans when
// set — built once per world on a miss, zero slicing work on a hit —
// otherwise only the calling rank's slice, rebuilt per call), execute,
// finish. Error semantics are Multiply's.
func MultiplyAccumulate(pe rt.PE, prob Problem, cfg Config) (Stationary, error) {
	cfg = cfg.withDefaults()
	rank := pe.Rank()
	var work [1]feeder
	if cfg.Plans != nil {
		cp := cfg.Plans.GetOrCompile(prob, cfg)
		work[0] = feeder{prob: prob, plan: cp.Plans[rank], sched: &cp.scheds[rank]}
	} else {
		sched := new(fetchSchedule)
		plan := compileRank(rank, prob, PlanKeyOf(prob, cfg), normalizeExclude(cfg.Exclude), sched)
		work[0] = feeder{prob: prob, plan: plan, sched: sched}
	}
	err := execute(pe, work[:], cfg)
	Finish(pe, []Problem{prob}, cfg)
	return work[0].plan.Stationary, err
}

// Finish is the collective epilogue of the multiplies a rank just executed:
// one barrier — every one-sided update must land before any C is read —
// then, for each replicated C, the replica reduction and optional
// re-broadcast. It runs outside the executor's fault scope, so it proceeds
// (and stays barrier-matched across ranks) even after an execution error;
// the reduced values are only meaningful if no rank failed.
func Finish(pe rt.PE, probs []Problem, cfg Config) {
	pe.Barrier()
	for _, prob := range probs {
		if prob.C.Replication() > 1 {
			prob.C.ReduceReplicas(pe, cfg.ReduceOrigin)
			if cfg.SyncReplicas {
				prob.C.BroadcastReplica(pe, cfg.ReduceOrigin)
			}
		}
	}
}

// tileSlot is one fetched buffer with its in-flight future and a reference
// count. A slot is born with one reference for its scheduled residency
// (fetchSchedule.evictions says when that ends); every step using the
// buffer takes a reference for the duration of its GEMM→accumulate chain.
// When the count reaches zero — the residency has ended and no in-flight
// chain still reads the buffer — the buffer returns to the pool for the
// next fetch.
type tileSlot struct {
	fut  distmat.TileFuture
	mat  tile.Matrix
	buf  []float32
	pool *gpusim.Pool
	refs atomic.Int32
}

// acquire takes a user reference and blocks until the fetch has landed.
func (s *tileSlot) acquire() *tile.Matrix {
	s.refs.Add(1)
	return s.fut.Wait()
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
// A and B fetches and its sliced operand views. One array per plan, so
// fetching and slicing allocate nothing per step.
type stepState struct {
	a, b         tileSlot
	aView, bView tile.Matrix
}

// chainTask is one ready GEMM→accumulate chain handed to the worker crew.
// It carries its own Problem so one crew can serve a fused batch of
// multiplies.
type chainTask struct {
	prob         Problem
	op           LocalOp
	st           *stepState
	aSlot, bSlot *tileSlot
	// ckpt/step checkpoint the chain's accumulate when it lands (nil = no
	// checkpointing; the common fault-free entry points pay nothing).
	ckpt *Checkpoint
	step int
}

// startChainCrew spawns the bounded GEMM→accumulate worker crew (§4.2's
// configurable chain-concurrency limit): MaxInflight workers drain a channel
// of ready chains. Tasks are plain values, so dispatching a step allocates
// nothing; the unbuffered send blocks exactly when all workers are busy,
// which is the same admission control as a counting semaphore. The crew is
// problem-agnostic (each task carries its own Problem), so one crew drains
// the chains of many fused multiplies.
//
// box is the crew's abort flag: a worker whose accumulate fails fatally
// (after its retry budget) publishes the error, and every worker keeps
// draining tasks — releasing their slots so pooled buffers balance — but
// skips their compute. The feeder polls the same box and stops
// dispatching, so a failed step ends the run cleanly instead of
// deadlocking the channel.
func startChainCrew(pe rt.PE, cfg Config, box *errBox) (chan<- chainTask, *sync.WaitGroup) {
	tasks := make(chan chainTask)
	wg := new(sync.WaitGroup)
	for w := 0; w < cfg.MaxInflight; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			ret := newRetrier(cfg.Retry, seed)
			for t := range tasks {
				if box.err() == nil {
					err := gemmAccumulate(pe, t.prob, t.op, &t.st.aView, &t.st.bView, cfg.Pool, cfg.KernelWorkers, &ret)
					if err == nil && t.ckpt != nil {
						// The chain's single accumulate landed (a failed op
						// moves no data, so this is exactly the step's C
						// contribution becoming durable): checkpoint it at
						// the same point the step's slot references retire.
						t.ckpt.mark(t.step)
					}
					box.set(err)
				}
				if t.aSlot != nil {
					t.aSlot.release()
				}
				if t.bSlot != nil {
					t.bSlot.release()
				}
			}
		}(uint64(pe.Rank())<<16 | uint64(w+1))
	}
	return tasks, wg
}

// execute is the one executor: it runs this rank's slice of every plan in
// work through a single worker crew with the §4.2 optimizations — iteration
// offset (already baked into the op order), prefetching via get_tile_async,
// asynchronous GEMM→accumulate chains with bounded concurrency, and pooled
// scratch memory. Multiply passes one plan, the serving layer a fused
// batch, the resilient multiply one plan with a checkpoint; a plan lowered
// from a §4.3 IR schedule (CompileOrdered) is the same steps in another
// order and runs here unchanged. The loop is allocation-free in the steady
// state. cfg must already have defaults
// applied; the plans' schedules are read-only, so concurrent executions of
// one CompiledPlan share them. No collective synchronization happens here;
// callers Finish afterwards.
//
// The run is bracketed in a fault scope with the configured per-op
// deadline: on fault-capable backends this is the recoverable region
// (injected faults fire only here, retried per Config.Retry), and the
// collectives around it stay fault-free so ranks never diverge on barrier
// counts. The returned error is the rank's first fatal one-sided fault
// (after per-op retries), which stops dispatch across all of work; every
// pooled buffer is back in the pool either way.
func execute(pe rt.PE, work []feeder, cfg Config) error {
	rt.PushFaultScope(pe)
	defer rt.PopFaultScope(pe)
	rt.SetOpDeadline(pe, cfg.Retry.OpTimeout)
	defer rt.SetOpDeadline(pe, 0)
	var box errBox
	tasks, wg := startChainCrew(pe, cfg, &box)
	fed := 0
	for ; fed < len(work) && box.err() == nil; fed++ {
		work[fed].feed(pe, cfg, tasks, &box)
	}
	close(tasks)
	wg.Wait()
	// Residual residencies are dropped only now, on this goroutine, so the
	// final pool returns never race worker releases mid-execution.
	for i := range work[:fed] {
		work[i].finish()
	}
	return box.err()
}

// feeder walks one per-rank plan, issuing prefetches and handing each ready
// GEMM→accumulate chain to the crew. Callers of execute fill the first
// four fields; the rest is the walk's state. It owns the plan's slot array,
// whose refcounts keep pooled buffers alive until the last in-flight chain
// using them retires — which is why a feeder outlives its feed call and
// execute can feed further plans to the same crew before this one's chains
// drain.
type feeder struct {
	prob  Problem
	plan  Plan
	sched *fetchSchedule
	ckpt  *Checkpoint // non-nil (and Reset to the plan's length): mark every step whose accumulate lands

	pe    rt.PE
	pool  *gpusim.Pool
	ret   retrier
	steps []stepState
	// Local-tile view headers, one per operand (reused across steps) so a
	// step with two local tiles never aliases them.
	aLocal, bLocal tile.Matrix
	evicted        int // cursor into sched.evictions
}

// feed dispatches the plan's steps in order. Fetch issues run under the
// retry budget; a fatal failure (or one published by a crew worker) stops
// dispatch at that step. Already-issued fetches are safe to abandon — every
// backend completes the data movement of an async get at issue time — so
// finish returns their buffers to the pool unconditionally.
func (f *feeder) feed(pe rt.PE, cfg Config, tasks chan<- chainTask, box *errBox) {
	f.pe, f.pool = pe, cfg.Pool
	f.ret = newRetrier(cfg.Retry, uint64(pe.Rank())<<16|0xfeed)
	f.steps = make([]stepState, len(f.plan.Steps))
	box.set(f.issueFetches(0, 1+cfg.PrefetchDepth))
	for i := range f.plan.Steps {
		if box.err() != nil {
			return
		}
		if err := f.issueFetches(i+1+cfg.PrefetchDepth, i+2+cfg.PrefetchDepth); err != nil {
			box.set(err)
			return
		}
		s, st := &f.plan.Steps[i], &f.steps[i]
		aSlot := f.slot(fetchRef{f.sched.srcA[i], 'A'})
		bSlot := f.slot(fetchRef{f.sched.srcB[i], 'B'})
		f.acquire(f.prob.A, aSlot, s.Op.AIdx, s.aRect(), s.SubTile, &f.aLocal, &st.aView)
		f.acquire(f.prob.B, bSlot, s.Op.BIdx, s.bRect(), s.SubTile, &f.bLocal, &st.bView)
		tasks <- chainTask{prob: f.prob, op: s.Op, st: st, aSlot: aSlot, bSlot: bSlot, ckpt: f.ckpt, step: i}
		// Retire buffers whose scheduled residency ended at this step; the
		// chains still using them hold their own references.
		for ; f.evicted < len(f.sched.evictions) && f.sched.evictions[f.evicted].atStep == i; f.evicted++ {
			f.slot(f.sched.evictions[f.evicted].ref).release()
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
	s.pool = f.pool
	s.buf = f.pool.GetUninit(rows * cols)
	s.mat = tile.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: s.buf}
	s.refs.Store(1) // the scheduled residency
	return f.ret.do(func() {
		if subTile {
			m.GetSubTileIntoAsync(f.pe, &s.fut, &s.mat, idx, distmat.LocalReplica, want)
		} else {
			m.GetTileIntoAsync(f.pe, &s.fut, &s.mat, idx, distmat.LocalReplica)
		}
	})
}

// acquire resolves one operand of a step into view, sliced to want: from a
// zero-copy view of the local tile (slot nil), or from the fetch in slot,
// taking the chain's reference and waiting for the copy to land.
func (f *feeder) acquire(m *distmat.Matrix, slot *tileSlot, idx index.TileIdx, want index.Rect, subTile bool, localView, view *tile.Matrix) {
	base, held := localView, m.TileBounds(idx)
	if slot == nil {
		m.TileInto(f.pe, localView, idx, distmat.LocalReplica)
	} else {
		base = slot.acquire()
		if subTile {
			held = want // a sub-tile fetch holds exactly the operand
		}
	}
	base.ViewInto(view, want.Rows.Begin-held.Rows.Begin, want.Cols.Begin-held.Cols.Begin, want.Rows.Len(), want.Cols.Len())
}

// gemmAccumulate multiplies the sliced tiles into a pooled scratch buffer
// and atomically accumulates the result into C — the GEMM→accumulate chain
// of §4.2. aSlice and bSlice must already be sliced to the op's (M,K) and
// (K,N) bounds; workers > 1 spreads the local GEMM across that many
// goroutines (Config.KernelWorkers). It performs no heap allocation in the
// steady state: the partial lives in a pooled buffer and its header on the
// stack. The accumulate runs under ret's retry budget; a fatal fault comes
// back as an error with the scratch buffer already back in the pool.
func gemmAccumulate(pe rt.PE, prob Problem, op LocalOp, aSlice, bSlice *tile.Matrix, pool *gpusim.Pool, workers int, ret *retrier) error {
	rows, cols := op.M.Len(), op.N.Len()
	buf := pool.Get(rows * cols)
	partial := tile.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: buf}
	if workers > 1 {
		tile.GemmParallel(&partial, aSlice, bSlice, workers)
	} else {
		tile.Gemm(&partial, aSlice, bSlice)
	}
	rt.ChargeGemm(pe, rows, cols, op.K.Len())
	err := ret.do(func() { prob.C.AccumulateSubTile(pe, op.CIdx, distmat.LocalReplica, subRect(op), &partial) })
	pool.Put(buf)
	return err
}

func subRect(op LocalOp) (r index.Rect) {
	r.Rows = op.M
	r.Cols = op.N
	return r
}
