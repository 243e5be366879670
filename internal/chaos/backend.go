package chaos

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rt "slicing/internal/runtime"
)

// Wrap decorates a backend so every world it creates is fault-injected
// under plan. The wrapped backend is a drop-in runtime.Backend; its name
// is the inner name suffixed with "+chaos".
func Wrap(b rt.Backend, plan *Plan) rt.Backend {
	return wrappedBackend{inner: b, plan: plan}
}

type wrappedBackend struct {
	inner rt.Backend
	plan  *Plan
}

func (b wrappedBackend) Name() string { return b.inner.Name() + "+chaos" }

func (b wrappedBackend) NewWorld(p int) rt.World {
	return WrapWorld(b.inner.NewWorld(p), b.plan)
}

// WrapWorld decorates one world with fault injection under plan. The
// returned world preserves the inner world's TimedWorld capability by
// selecting a wrapper flavour that forwards it, so harness code probing
// capabilities sees the same answers it would from the bare world. Use Of
// to reach the chaos state (fire log, injection counters) behind the
// returned value.
func WrapWorld(inner rt.World, plan *Plan) rt.World {
	p := inner.NumPE()
	w := &World{
		inner:    inner,
		plan:     plan,
		p:        p,
		scope:    make([]atomic.Int32, p),
		deadline: make([]atomic.Int64, p),
		seq:      make([]atomic.Int64, p*numClasses),
		crashed:  make([]atomic.Bool, p),
		capped:   make([]atomic.Int64, len(plan.Rules)*p),
		once:     make([]atomic.Bool, len(plan.Rules)),
	}
	// Both flavours are pointers, so the world's identity is one heap
	// object, which universal.PlansOf holds weakly.
	w.self = w
	if _, timed := inner.(rt.TimedWorld); timed {
		w.self = &timedWorld{w}
	}
	return w.self
}

// Of returns the chaos state behind a world produced by Wrap/WrapWorld,
// ok=false for any other world.
func Of(w rt.World) (*World, bool) {
	switch v := w.(type) {
	case *World:
		return v, true
	case *timedWorld:
		return v.base, true
	}
	return nil, false
}

// World is the fault-injecting world decorator. All runtime.World methods
// delegate to the wrapped world; the one-sided primitives of the PEs it
// hands out pass through inject first.
type World struct {
	inner rt.World
	plan  *Plan
	// self is the capability-flavoured wrapper value actually returned to
	// callers; PE.World() must hand it back so identity checks (plan
	// caches, serving-layer operand validation) key on the chaos world.
	self rt.World
	p    int

	scope    []atomic.Int32 // per-rank fault-scope depth
	deadline []atomic.Int64 // per-rank op deadline, nanoseconds (0 = none)
	seq      []atomic.Int64 // per-(rank, class) op sequence counters
	crashed  []atomic.Bool  // per-rank sticky crash flags
	capped   []atomic.Int64 // per-(rule, rank) fire counts for MaxFires
	once     []atomic.Bool  // per-rule world-wide single-shot latch

	transient atomic.Int64
	delayed   atomic.Int64
	hung      atomic.Int64
	crashes   atomic.Int64
	degrades  atomic.Int64
	heals     atomic.Int64

	mu  sync.Mutex
	log []Fire
}

func (w *World) NumPE() int                        { return w.inner.NumPE() }
func (w *World) AllocSymmetric(n int) rt.SegmentID { return w.inner.AllocSymmetric(n) }
func (w *World) World() rt.World                   { return w.self }
func (w *World) SegmentLen(seg rt.SegmentID) int   { return w.inner.SegmentLen(seg) }
func (w *World) Stats() rt.Stats                   { return w.inner.Stats() }
func (w *World) ResetStats()                       { w.inner.ResetStats() }

func (w *World) SegmentStorage(seg rt.SegmentID, rank int) []float32 {
	return w.inner.SegmentStorage(seg, rank)
}

// Run spawns the inner world's PEs and hands the body fault-injecting
// wrappers around them.
func (w *World) Run(body func(pe rt.PE)) {
	w.inner.Run(func(inner rt.PE) {
		body(w.wrapPE(inner))
	})
}

// DegradeLink implements runtime.LinkDegrader: it forwards to the inner
// world's own degrade hook when it has one, falling back to the plan's
// Fabric. DegradeRail rules go through the same path.
func (w *World) DegradeLink(name string, factor float64) bool {
	if rt.DegradeLinkOf(w.inner, name, factor) {
		return true
	}
	if f := w.plan.Fabric; f != nil {
		if li, ok := f.LinkIndex(name); ok {
			f.DegradeAt(li, factor)
			return true
		}
	}
	return false
}

// Crashed reports whether a Crash rule has fired on rank.
func (w *World) Crashed(rank int) bool { return w.crashed[rank].Load() }

// RankFailed implements runtime.HealthReporter from the sticky crash
// flags, so membership views (runtime.Membership.Sync, DeadRanksOf) and
// the serving loop's failover path can poll liveness through the plain
// runtime.World interface.
func (w *World) RankFailed(rank int) bool { return w.crashed[rank].Load() }

// Revive clears rank's crash flag — the test-scriptable heal: the PE's
// NIC came back and its initiations work again. It reports whether the
// rank was crashed (false makes repeated revival idempotent). Reviving
// does not rewind rule state: a Crash rule that still matches the rank
// may crash it again, and MaxFires caps already consumed stay consumed.
func (w *World) Revive(rank int) bool {
	if w.crashed[rank].CompareAndSwap(true, false) {
		w.heals.Add(1)
		return true
	}
	return false
}

// Injected returns a snapshot of the per-kind injection counters.
func (w *World) Injected() Stats {
	return Stats{
		Transient: w.transient.Load(),
		Delayed:   w.delayed.Load(),
		Hung:      w.hung.Load(),
		Crashes:   w.crashes.Load(),
		Degrades:  w.degrades.Load(),
		Heals:     w.heals.Load(),
	}
}

// Fires returns the fault schedule so far: every fired rule occurrence,
// sorted (rule, rank, class, seq) so two runs of the same seeded workload
// can be compared for identity regardless of goroutine interleaving.
func (w *World) Fires() []Fire {
	w.mu.Lock()
	out := make([]Fire, len(w.log))
	copy(out, w.log)
	w.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Seq < b.Seq
	})
	return out
}

func (w *World) record(r *Rule, class OpClass, rank, seq int) {
	w.mu.Lock()
	w.log = append(w.log, Fire{Rule: r.Name, Kind: r.Kind, Class: class, Rank: rank, Seq: seq})
	w.mu.Unlock()
}

// inject is the interception point every one-sided primitive passes
// through. Outside a fault scope it is a single atomic load; inside one
// it draws the next (rank, class) sequence number and evaluates the rules
// in order — the first firing rule wins. Failing kinds unwind via
// runtime.Fail; surviving kinds return and the caller performs the op.
// The no-fire path allocates nothing.
func (w *World) inject(rank int, class OpClass, op string) {
	if w.scope[rank].Load() == 0 {
		return
	}
	if w.crashed[rank].Load() {
		rt.Fail(rt.ErrPEFailed, op, rank)
	}
	seq := int(w.seq[rank*numClasses+classIndex(class)].Add(1)) - 1
	for i := range w.plan.Rules {
		r := &w.plan.Rules[i]
		if !r.matches(class, rank) || !w.plan.Decide(i, rank, seq) {
			continue
		}
		// MaxFires accounting consumes cap slots at evaluation order, which
		// under concurrent ops of one class is not deterministic — capped
		// rules trade schedule reproducibility for boundedness (documented
		// in docs/RESILIENCE.md). Pure rate rules stay fully deterministic.
		if r.MaxFires > 0 && int(w.capped[i*w.p+rank].Add(1)) > r.MaxFires {
			continue
		}
		w.fire(i, r, class, rank, seq, op)
		return
	}
}

// fire applies one firing rule to the current op.
func (w *World) fire(idx int, r *Rule, class OpClass, rank, seq int, op string) {
	switch r.Kind {
	case Transient:
		w.record(r, class, rank, seq)
		w.transient.Add(1)
		rt.Fail(rt.ErrTransient, op, rank)
	case Delay:
		w.record(r, class, rank, seq)
		w.delayed.Add(1)
		time.Sleep(r.Delay)
	case Hang:
		w.record(r, class, rank, seq)
		w.hung.Add(1)
		if d := time.Duration(w.deadline[rank].Load()); d > 0 && d < r.Delay {
			// The op would outlive its deadline: model the backend noticing
			// at the deadline and failing the op rather than wedging the
			// caller for the full hang.
			time.Sleep(d)
			rt.Fail(rt.ErrOpTimeout, op, rank)
		}
		time.Sleep(r.Delay)
	case Crash:
		if w.crashed[rank].CompareAndSwap(false, true) {
			w.record(r, class, rank, seq)
			w.crashes.Add(1)
		}
		rt.Fail(rt.ErrPEFailed, op, rank)
	case DegradeRail:
		if w.once[idx].CompareAndSwap(false, true) && w.DegradeLink(r.Link, r.Factor) {
			w.record(r, class, rank, seq)
			w.degrades.Add(1)
		}
	case Heal:
		// Revive only records when Target was actually crashed, so the
		// logged schedule stays meaningful (one fire per revival) even
		// though the rule keeps deciding true on later ops.
		if w.Revive(r.Target) {
			w.record(r, class, rank, seq)
		}
	}
}

// base aliases World so the flavoured wrappers can embed it without the
// field name colliding with the World() method of the runtime contract.
type base = World

// timedWorld forwards the TimedWorld capability of a timed inner world.
type timedWorld struct{ *base }

func (w timedWorld) timed() rt.TimedWorld            { return w.inner.(rt.TimedWorld) }
func (w timedWorld) PredictedSeconds() float64       { return w.timed().PredictedSeconds() }
func (w timedWorld) ResetTime()                      { w.timed().ResetTime() }
func (w timedWorld) StreamStats() rt.StreamStats     { return w.timed().StreamStats() }
func (w timedWorld) FabricLinkStats() []rt.LinkStats { return w.timed().FabricLinkStats() }

var (
	_ rt.World        = (*World)(nil)
	_ rt.LinkDegrader = (*World)(nil)
	_ rt.TimedWorld   = timedWorld{}
)

// pe is the fault-injecting PE decorator. Every one-sided primitive
// passes through inject before delegating; Barrier and allocation never
// do (they are the backbone recovery relies on).
type pe struct {
	inner rt.PE
	cw    *World
	rank  int
}

func (w *World) wrapPE(inner rt.PE) rt.PE {
	p := &pe{inner: inner, cw: w, rank: inner.Rank()}
	if g, ok := inner.(rt.GemmTimer); ok {
		return &timedPE{pe: p, gemm: g}
	}
	return p
}

func (p *pe) Rank() int                         { return p.rank }
func (p *pe) NumPE() int                        { return p.inner.NumPE() }
func (p *pe) World() rt.World                   { return p.cw.self }
func (p *pe) AllocSymmetric(n int) rt.SegmentID { return p.inner.AllocSymmetric(n) }
func (p *pe) Local(seg rt.SegmentID) []float32  { return p.inner.Local(seg) }
func (p *pe) Barrier()                          { p.inner.Barrier() }

// PushFaultScope implements runtime.FaultScoper.
func (p *pe) PushFaultScope() { p.cw.scope[p.rank].Add(1) }

// PopFaultScope implements runtime.FaultScoper.
func (p *pe) PopFaultScope() { p.cw.scope[p.rank].Add(-1) }

// SetOpDeadline implements runtime.OpDeadliner: it bounds how long an
// injected Hang may stall this rank's ops before they fail with
// ErrOpTimeout. Zero removes the bound.
func (p *pe) SetOpDeadline(d time.Duration) { p.cw.deadline[p.rank].Store(int64(d)) }

func (p *pe) Get(dst []float32, seg rt.SegmentID, remote, offset int) {
	p.cw.inject(p.rank, OpGet, "Get")
	p.inner.Get(dst, seg, remote, offset)
}

func (p *pe) Put(src []float32, seg rt.SegmentID, remote, offset int) {
	p.cw.inject(p.rank, OpPut, "Put")
	p.inner.Put(src, seg, remote, offset)
}

func (p *pe) AccumulateAdd(src []float32, seg rt.SegmentID, remote, offset int) {
	p.cw.inject(p.rank, OpAccum, "AccumulateAdd")
	p.inner.AccumulateAdd(src, seg, remote, offset)
}

func (p *pe) AccumulateAddGetPut(src []float32, seg rt.SegmentID, remote, offset int) {
	p.cw.inject(p.rank, OpAccum, "AccumulateAddGetPut")
	p.inner.AccumulateAddGetPut(src, seg, remote, offset)
}

func (p *pe) GetStrided(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) {
	p.cw.inject(p.rank, OpGet, "GetStrided")
	p.inner.GetStrided(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
}

func (p *pe) PutStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	p.cw.inject(p.rank, OpPut, "PutStrided")
	p.inner.PutStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
}

func (p *pe) AccumulateAddStrided(src []float32, srcStride int, seg rt.SegmentID, remote, offset, dstStride, rows, cols int) {
	p.cw.inject(p.rank, OpAccum, "AccumulateAddStrided")
	p.inner.AccumulateAddStrided(src, srcStride, seg, remote, offset, dstStride, rows, cols)
}

func (p *pe) GetAsync(dst []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	p.cw.inject(p.rank, OpGet, "GetAsync")
	return p.inner.GetAsync(dst, seg, remote, offset)
}

func (p *pe) GetStridedAsync(dst []float32, dstStride int, seg rt.SegmentID, remote, offset, srcStride, rows, cols int) rt.Future {
	p.cw.inject(p.rank, OpGet, "GetStridedAsync")
	return p.inner.GetStridedAsync(dst, dstStride, seg, remote, offset, srcStride, rows, cols)
}

func (p *pe) AccumulateAddAsync(src []float32, seg rt.SegmentID, remote, offset int) rt.Future {
	p.cw.inject(p.rank, OpAccum, "AccumulateAddAsync")
	return p.inner.AccumulateAddAsync(src, seg, remote, offset)
}

// timedPE additionally forwards the GemmTimer capability of a timed inner
// PE.
type timedPE struct {
	*pe
	gemm rt.GemmTimer
}

func (p *timedPE) ElapseGemm(m, n, k int) { p.gemm.ElapseGemm(m, n, k) }

var (
	_ rt.PE          = (*pe)(nil)
	_ rt.FaultScoper = (*pe)(nil)
	_ rt.OpDeadliner = (*pe)(nil)
	_ rt.GemmTimer   = (*timedPE)(nil)
)
