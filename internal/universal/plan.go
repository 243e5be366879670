package universal

import (
	"sync/atomic"

	"slicing/internal/distmat"
	"slicing/internal/index"
)

// planBuilds counts executed slicing passes (buildStepsFromOps calls), the
// observable for pass-count tests proving a plan-cache hit re-runs zero
// slicing work.
var planBuilds atomic.Int64

// PlanBuildCount returns the number of slicing passes run so far in this
// process. Diagnostic/test hook: the delta across a cached Multiply must be
// zero on a plan-cache hit.
func PlanBuildCount() int64 { return planBuilds.Load() }

// Step is one scheduled local operation in an execution plan: the op plus
// the communication it requires, with tile-cache hits already resolved so
// the real executor and the simulated-time executor make identical
// fetch decisions.
type Step struct {
	Op LocalOp
	// FetchA / FetchB indicate the tile must be copied over the network
	// (it is neither local to the rank nor present in the tile cache).
	FetchA, FetchB bool
	// ALocal / BLocal / CLocal indicate the tile lives in this rank's own
	// replica slot (zero-copy access).
	ALocal, BLocal, CLocal bool
	// ASrc, BSrc, CDst are the resolved owner ranks within the executing
	// rank's local replicas.
	ASrc, BSrc, CDst int
	// ABytes / BBytes are the transfer sizes when fetched: whole tiles in
	// the default mode, exact op slices in sub-tile mode.
	ABytes, BBytes int
	// AccumBytes is the size of the C update the op produces (M×N floats).
	AccumBytes int
	// SubTile marks the bandwidth-optimal fetch mode: only the op's (M,K)
	// and (K,N) slices move, at the cost of losing cross-op tile reuse.
	SubTile bool
	// Chained marks a step whose product is summed into the next step's
	// partial instead of being accumulated on its own: the next step writes
	// the same C rectangle, so the run shares one partial and lands one
	// accumulate, issued by the run's last (unchained) step. Decided by
	// resolveFetches; omitted from JSON when false, so plans without
	// adjacent same-C runs serialize as they always did.
	Chained bool `json:",omitempty"`
}

// Plan is the per-rank execution plan for one distributed multiply.
type Plan struct {
	Rank       int
	Stationary Stationary
	Steps      []Step
}

// TotalFlops sums the floating-point work of all steps.
func (pl Plan) TotalFlops() float64 {
	var f float64
	for _, s := range pl.Steps {
		f += s.Op.Flops()
	}
	return f
}

// RemoteFetchBytes sums the bytes of remote get traffic the plan issues.
func (pl Plan) RemoteFetchBytes() int {
	var b int
	for _, s := range pl.Steps {
		if s.FetchA {
			b += s.ABytes
		}
		if s.FetchB {
			b += s.BBytes
		}
	}
	return b
}

// RemoteAccumBytes sums the bytes of remote accumulate traffic: one
// accumulate per chain, issued by its last step.
func (pl Plan) RemoteAccumBytes() int {
	var b int
	for _, s := range pl.Steps {
		if !s.CLocal && !s.Chained {
			b += s.AccumBytes
		}
	}
	return b
}

// DefaultCacheTiles is how many recently fetched tiles a process keeps
// for reuse across consecutive ops, bounding the memory-pool footprint the
// same way the paper's configurable concurrency limits do.
const DefaultCacheTiles = 8

type cacheKey struct {
	mat byte // 'A' or 'B'
	idx index.TileIdx
}

// fetchRef names one fetch in a plan: the step that issued it and the
// operand matrix it was issued for.
type fetchRef struct {
	step int
	mat  byte // 'A' or 'B'
}

// tileLRU tracks which fetched tiles are resident, each with the step whose
// fetch brought it in. It exists only inside resolveFetches, the one walk
// that decides both the plan's fetch flags and the executor's buffer
// lifetimes, so the two match by construction.
type tileLRU struct {
	cap  int
	ents []lruEntry // least recently used first
}

type lruEntry struct {
	key  cacheKey
	step int // the step whose fetch brought key in
}

func newTileLRU(capacity int) *tileLRU {
	if capacity <= 0 {
		capacity = DefaultCacheTiles
	}
	return &tileLRU{cap: capacity}
}

// touch marks key as most recently used on behalf of step. It returns the
// step whose fetch holds key resident — step itself on a miss — and, when
// the insertion overflows capacity, the fetch it evicts.
func (l *tileLRU) touch(k cacheKey, step int) (src int, evicted fetchRef, didEvict bool) {
	for i, e := range l.ents {
		if e.key == k {
			copy(l.ents[i:], l.ents[i+1:])
			l.ents[len(l.ents)-1] = e
			return e.step, fetchRef{}, false
		}
	}
	l.ents = append(l.ents, lruEntry{k, step})
	if len(l.ents) > l.cap {
		old := l.ents[0]
		l.ents = append(l.ents[:0], l.ents[1:]...)
		return step, fetchRef{old.step, old.key.mat}, true
	}
	return step, fetchRef{}, false
}

// fetchEvict records that a fetch's buffer residency ends once step atStep
// has been dispatched; atStep == len(steps) marks fetches still resident at
// the end of the plan.
type fetchEvict struct {
	atStep int
	ref    fetchRef
}

// fetchSchedule is the executor's view of a plan's fetches: which fetch
// serves each step's non-local operand, and when each fetched buffer's
// residency ends. It is derived in the same LRU walk that sets the steps'
// fetch flags (resolveFetches), so a tile buffer is recycled exactly when
// the plan re-fetches the tile, and steady-state execution holds at most
// CacheTiles tile buffers per operand instead of every fetch of the plan.
type fetchSchedule struct {
	// srcA[i] / srcB[i] give the step whose fetch serves step i's operand
	// (srcX[i] == i when the step fetches it itself); -1 marks local tiles.
	srcA, srcB []int
	// evictions lists every fetch's residency end in non-decreasing atStep
	// order (each fetch appears exactly once), so the executor retires
	// buffers by walking a cursor. A sub-tile fetch is single-use: its
	// residency ends at its own step.
	evictions []fetchEvict
}

// serve and evict record the walk's decisions. A nil schedule discards
// them: the cost models build plans by the thousand and never execute one.
func (fs *fetchSchedule) serve(i, srcA, srcB int) {
	if fs != nil {
		fs.srcA[i], fs.srcB[i] = srcA, srcB
	}
}

func (fs *fetchSchedule) evict(atStep int, ref fetchRef) {
	if fs != nil {
		fs.evictions = append(fs.evictions, fetchEvict{atStep, ref})
	}
}

// resolveFetches is the one place fetch and chain decisions are made: it
// walks steps (locality already resolved) through the tile LRU at capacity
// cacheTiles, writes each step's FetchA/FetchB and Chained, and fills sched
// (when non-nil) with the matching executor schedule. changed reports
// whether any flag it wrote differed from the one already there — false for
// steps whose flags came from this same walk, which is how the plan loader
// checks a deserialized plan.
//
// Step i is chained to step i+1 when both write the same C rectangle and
// the chain so far is shorter than the cache capacity. The cap is the
// memory bound the capacity already is: an in-flight chain pins its steps'
// operand buffers past their LRU residency, so its length is held to the
// number that bounds resident tiles (capacity 1 chains nothing).
func resolveFetches(steps []Step, cacheTiles int, sched *fetchSchedule) (changed bool) {
	n := len(steps)
	if sched != nil {
		src := make([]int, 2*n)
		*sched = fetchSchedule{srcA: src[:n:n], srcB: src[n:]}
	}
	cache := newTileLRU(cacheTiles)
	resolve := func(i int, local, subTile bool, key cacheKey) (src int, fetch bool) {
		switch {
		case local:
			return -1, false
		case subTile:
			sched.evict(i, fetchRef{i, key.mat})
			return i, true
		}
		src, evicted, did := cache.touch(key, i)
		if did {
			sched.evict(i, evicted)
		}
		return src, src == i
	}
	chainLen := 1 // steps in the chain step i belongs to, i included
	for i := range steps {
		s := &steps[i]
		srcA, fetchA := resolve(i, s.ALocal, s.SubTile, cacheKey{'A', s.Op.AIdx})
		srcB, fetchB := resolve(i, s.BLocal, s.SubTile, cacheKey{'B', s.Op.BIdx})
		sched.serve(i, srcA, srcB)
		chained := i+1 < n && chainLen < cache.cap && sameC(s.Op, steps[i+1].Op)
		changed = changed || fetchA != s.FetchA || fetchB != s.FetchB || chained != s.Chained
		s.FetchA, s.FetchB, s.Chained = fetchA, fetchB, chained
		if chained {
			chainLen++
		} else {
			chainLen = 1
		}
	}
	// Fetches still resident at plan end are retired together.
	for _, e := range cache.ents {
		sched.evict(n, fetchRef{e.step, e.key.mat})
	}
	return changed
}

// sameC reports whether two ops update the same rectangle of the same C
// tile, so their products can share one partial.
func sameC(x, y LocalOp) bool {
	return x.CIdx == y.CIdx && x.M == y.M && x.N == y.N
}

// BuildPlan resolves the ops rank must execute into a Step sequence:
// which tiles are local, which fetches hit the tile cache, where updates
// go, and how many bytes move.
func BuildPlan(rank int, p Problem, stat Stationary, cacheTiles int) Plan {
	return BuildPlanMode(rank, p, stat, cacheTiles, false)
}

// BuildPlanMode is BuildPlan with an explicit fetch-mode choice. With
// subTile true the plan fetches only each op's exact (M,K) and (K,N)
// slices — minimal bytes, no cross-op reuse; with subTile false it fetches
// whole tiles through the LRU cache — more bytes, amortized across the ops
// sharing a tile. The tradeoff is benchmarked in BenchmarkFetchModeAblation.
func BuildPlanMode(rank int, p Problem, stat Stationary, cacheTiles int, subTile bool) Plan {
	return compileRank(rank, p, PlanKey{
		Stationary: p.ResolveStationary(stat), CacheTiles: cacheTiles, SubTile: subTile,
	}, nil, nil)
}

// buildStepsFromOps lowers an explicit op list into a Step sequence with
// locality, fetch decisions, and byte counts resolved for the executing
// rank, filling sched (when non-nil) with the executor schedule of those
// fetches. compileRank feeds it the rank's own and adopted ops; the
// resilient multiply's repair rounds feed it the unfinished ops of ranks
// that failed mid-run, where the adopting rank's own replica placement —
// not the dead rank's — must drive the source/destination resolution. stat
// must already be resolved.
func buildStepsFromOps(rank int, p Problem, resolved Stationary, ops []LocalOp, cacheTiles int, subTile bool, sched *fetchSchedule) Plan {
	planBuilds.Add(1)
	steps := make([]Step, len(ops))
	for i, op := range ops {
		s := &steps[i]
		s.Op, s.SubTile = op, subTile
		s.ASrc = p.A.OwnerRank(op.AIdx, distmat.LocalReplica, rank)
		s.BSrc = p.B.OwnerRank(op.BIdx, distmat.LocalReplica, rank)
		s.CDst = p.C.OwnerRank(op.CIdx, distmat.LocalReplica, rank)
		s.ALocal = s.ASrc == rank
		s.BLocal = s.BSrc == rank
		s.CLocal = s.CDst == rank
		s.AccumBytes = op.M.Len() * op.N.Len() * 4
		if subTile {
			s.ABytes = op.M.Len() * op.K.Len() * 4
			s.BBytes = op.K.Len() * op.N.Len() * 4
		} else {
			s.ABytes = p.A.TileBounds(op.AIdx).Area() * 4
			s.BBytes = p.B.TileBounds(op.BIdx).Area() * 4
		}
	}
	resolveFetches(steps, cacheTiles, sched)
	return Plan{Rank: rank, Stationary: resolved, Steps: steps}
}
