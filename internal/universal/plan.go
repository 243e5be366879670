package universal

import (
	"cmp"
	"slices"
	"sync/atomic"

	"slicing/internal/distmat"
	"slicing/internal/index"
)

// planBuilds counts executed slicing passes (lowerOps calls), the
// observable for pass-count tests proving a plan-cache hit re-runs zero
// slicing work and a compile lowers each rank once.
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
	return newTileLRU(cacheTiles).walk(steps, sched)
}

// walk is resolveFetches through an existing LRU, which it empties first,
// so the order pass prices its candidate orders in one LRU's storage.
func (cache *tileLRU) walk(steps []Step, sched *fetchSchedule) (changed bool) {
	n := len(steps)
	if sched != nil {
		// Each fetch is evicted exactly once, and a step fetches at most
		// its non-local operands, so their count bounds the evictions.
		reads := 0
		for i := range steps {
			if !steps[i].ALocal {
				reads++
			}
			if !steps[i].BLocal {
				reads++
			}
		}
		src := make([]int, 2*n)
		*sched = fetchSchedule{srcA: src[:n:n], srcB: src[n:], evictions: make([]fetchEvict, 0, reads)}
	}
	cache.ents = cache.ents[:0]
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
		chained := i+1 < n && chainLen < cache.cap && cmpC(&s.Op, &steps[i+1].Op) == 0
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

// cmpC orders ops by the rectangle of C they update (CIdx, M, N). 0 means
// the same rectangle, so the ops' products can share one partial. It takes
// pointers so sorting does not copy ops.
func cmpC(x, y *LocalOp) int {
	switch {
	case x.CIdx.Row != y.CIdx.Row:
		return cmp.Compare(x.CIdx.Row, y.CIdx.Row)
	case x.CIdx.Col != y.CIdx.Col:
		return cmp.Compare(x.CIdx.Col, y.CIdx.Col)
	case x.M != y.M:
		return cmp.Or(cmp.Compare(x.M.Begin, y.M.Begin), cmp.Compare(x.M.End, y.M.End))
	}
	return cmp.Or(cmp.Compare(x.N.Begin, y.N.Begin), cmp.Compare(x.N.End, y.N.End))
}

// BuildPlan resolves the ops rank must execute into a Step sequence:
// which tiles are local, which fetches hit the tile cache, where updates
// go, and how many bytes move. It fetches whole tiles through a
// cacheTiles-tile LRU; the sub-tile fetch mode (Config.SubTileFetch) is
// compiled by CompilePlans.
func BuildPlan(rank int, p Problem, stat Stationary, cacheTiles int) Plan {
	return compileRank(rank, p, PlanKey{Stationary: p.ResolveStationary(stat), CacheTiles: cacheTiles}, nil, nil)
}

// lowerOps lowers an op list into steps with locality, owner ranks and byte
// counts resolved for the executing rank. None of that depends on the
// order the steps run in, so a reordered plan is a permutation of these
// steps and a new walk (permuteSteps, resolveFetches), never a second
// lowering.
func lowerOps(rank int, p Problem, ops []LocalOp, subTile bool) []Step {
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
	return steps
}

// permuteSteps returns a copy of steps with its first len(perm) steps in
// perm's order (step i of the result is steps[perm[i]]) and the rest in
// place. The caller walks the result.
func permuteSteps(steps []Step, perm []int) []Step {
	out := make([]Step, len(steps))
	for i, j := range perm {
		out[i] = steps[j]
	}
	copy(out[len(perm):], steps[len(perm):])
	return out
}

// orderSteps is the compiler's order pass, §4.3's "reordered" on the
// direct executor. It prices two orders of a rank's lowered steps with the
// walk itself — remote get bytes from the fetch flags plus remote
// accumulate bytes from the chain flags — and returns the cheaper: the
// generated order, or the C-grouped order of the first own steps (the
// rank's generated ops; adopted ops stay at the tail in deal order). Ties
// go to the generated order. Grouping same-C steps lets them chain, but it
// can also lose A/B reuse under the tile LRU; the walk sees both exactly.
// When grouping moves nothing it walks and allocates nothing. The caller's
// final walk sets the flags of the steps it returns.
func orderSteps(steps []Step, own int, stat Stationary, cache *tileLRU) []Step {
	perm := groupedOrder(steps[:own], stat)
	if perm == nil {
		return steps
	}
	grouped := permuteSteps(steps, perm)
	cache.walk(steps, nil)
	cache.walk(grouped, nil)
	if remoteBytes(grouped) < remoteBytes(steps) {
		return grouped
	}
	return steps
}

// remoteBytes is the order pass's objective: the walked steps' remote get
// and remote accumulate bytes.
func remoteBytes(steps []Step) int {
	pl := Plan{Steps: steps}
	return pl.RemoteFetchBytes() + pl.RemoteAccumBytes()
}

// groupedOrder returns the C-grouped permutation of a rank's generated
// steps, or nil when it is the identity. Within each stationary tile's run
// the steps that write one C rectangle become adjacent. Groups follow their
// first appearance in the un-rotated run, and a group's steps keep their
// rotated order, so §4.2's iteration offset survives inside each group.
// (Ordering groups by the rotated run instead splits the group the rotation
// wrapped around the run's end.) A run that writes one rectangle is
// already grouped and costs one scan; a run in which no rectangle repeats
// has nothing to group and keeps its order.
func groupedOrder(steps []Step, stat Stationary) []int {
	var perm, first, count []int // perm[i] is the step grouped position i takes
	for s := 0; s < len(steps); {
		t := stationaryTile(steps[s].Op, stat)
		e, oneC := s+1, true
		for ; e < len(steps) && stationaryTile(steps[e].Op, stat) == t; e++ {
			oneC = oneC && cmpC(&steps[s].Op, &steps[e].Op) == 0
		}
		if !oneC {
			if perm == nil {
				n := len(steps)
				buf := make([]int, 3*n+1)
				perm, first, count = buf[:n], buf[n:2*n], buf[2*n:]
				for i := range perm {
					perm[i] = i
				}
			}
			groupRun(steps[s:e], iterOffset(t)%(e-s), perm[s:e], first[s:e], count[:e-s+1])
			for i := s; i < e; i++ {
				perm[i] += s
			}
		}
		s = e
	}
	for i, j := range perm {
		if i != j {
			return perm
		}
	}
	return nil
}

// groupRun writes into idx the grouped order of one run rotated by off:
// idx[i] is the run position grouped position i takes. first and count are
// scratch of len(run) and len(run)+1.
func groupRun(run []Step, off int, idx, first, count []int) {
	n := len(run)
	for j := range idx {
		idx[j], first[j] = j, (j+off)%n // j's un-rotated position, for now
	}
	// By C rectangle, then un-rotated position: each group is contiguous
	// and led by its first un-rotated step, whose position ranks the group.
	slices.SortFunc(idx, func(x, y int) int {
		if c := cmpC(&run[x].Op, &run[y].Op); c != 0 {
			return c
		}
		return first[x] - first[y]
	})
	g, repeats := 0, false
	for i, j := range idx {
		if i == 0 || cmpC(&run[idx[i-1]].Op, &run[j].Op) != 0 {
			g = first[j]
		} else {
			repeats = true
		}
		first[j] = g
	}
	if !repeats { // nothing to group: reordering would only undo the rotation
		for j := range idx {
			idx[j] = j
		}
		return
	}
	// A counting sort by group rank, stable, so each group keeps the
	// rotated order.
	clear(count)
	for _, f := range first {
		count[f+1]++
	}
	for f := 1; f < n; f++ {
		count[f] += count[f-1]
	}
	for j, f := range first {
		idx[count[f]] = j
		count[f]++
	}
}

// stationaryTile is the tile of the stationary operand an op belongs to:
// the generator emits one run per such tile.
func stationaryTile(op LocalOp, stat Stationary) index.TileIdx {
	switch stat {
	case StationaryA:
		return op.AIdx
	case StationaryB:
		return op.BIdx
	}
	return op.CIdx
}
