package gpusim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// ResourceID names an exclusive resource in the discrete-event engine: a
// device's compute engine, a PE's network egress or ingress port, a copy
// engine, a fabric link. An op occupies all its resources for its whole
// duration.
type ResourceID int

// OpID names a scheduled operation.
type OpID int

// OpKind classifies operations for reporting.
type OpKind int

const (
	OpCompute OpKind = iota
	OpComm
	OpAccum
	OpOther
)

// op is the per-op header; deps and resources live in the engine's flat
// CSR arrays (depFlat/resFlat indexed by depOff/resOff), and the label in
// the interned label table, so adding an op copies no per-op slices.
type op struct {
	label    int32
	kind     OpKind
	duration float64
}

// OpTiming reports when an op ran in the simulated schedule and which
// resources it occupied. Resources aliases the engine's storage; callers
// must not modify it.
type OpTiming struct {
	ID         OpID
	Label      string
	Kind       OpKind
	Start, End float64
	Resources  []ResourceID
}

// Result summarizes a simulation run.
//
// The slices are owned by the engine and reused by its next Run (that is
// what makes repeated Runs allocation-free); callers that need a Result to
// survive a later Run must copy them.
type Result struct {
	// Makespan is the simulated end-to-end time in seconds.
	Makespan float64
	// Timings holds per-op start/end times, indexed by OpID.
	Timings []OpTiming
	// BusyTime maps each resource to its total occupied seconds.
	BusyTime []float64
}

// Utilization returns the fraction of the makespan a resource was busy.
func (r Result) Utilization(res ResourceID) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.BusyTime[res] / r.Makespan
}

// Engine is a discrete-event simulator over exclusive resources. Build a
// DAG of ops with AddOp, then Run computes a list schedule: each op starts
// at the earliest time all its dependencies have finished and all its
// resources are free, with ties broken by insertion (program) order.
//
// Ops are stored in flat CSR form — one shared array each for dependency
// and resource lists, indexed by per-op offsets — and labels are interned,
// so the builder does O(1) amortized appends per op with no per-op slice
// copies. Run schedules through an indexed min-heap of cached feasible
// start times with lazy invalidation (see run), visiting O(log n) heap
// entries per scheduled op instead of rescanning the whole ready set, and
// keeps its scratch state on the engine so repeated Runs of the same DAG
// allocate nothing.
type Engine struct {
	ops       []op
	depOff    []int32 // len(ops)+1 once any op exists
	depFlat   []OpID
	resOff    []int32
	resFlat   []ResourceID
	resources []string
	labels    []string
	labelIdx  map[string]int32

	sched runScratch
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// AddResource registers an exclusive resource and returns its ID.
func (e *Engine) AddResource(name string) ResourceID {
	e.resources = append(e.resources, name)
	return ResourceID(len(e.resources) - 1)
}

// NumResources returns the number of registered resources.
func (e *Engine) NumResources() int { return len(e.resources) }

// ResourceName returns the name a resource was registered with.
func (e *Engine) ResourceName(r ResourceID) string { return e.resources[r] }

// intern returns the index of label in the label table, adding it on first
// sight. Estimator DAGs use a handful of distinct labels ("get", "gemm",
// "accum") across millions of ops, so ops store a 4-byte index.
func (e *Engine) intern(label string) int32 {
	if idx, ok := e.labelIdx[label]; ok {
		return idx
	}
	if e.labelIdx == nil {
		e.labelIdx = make(map[string]int32)
	}
	idx := int32(len(e.labels))
	e.labels = append(e.labels, label)
	e.labelIdx[label] = idx
	return idx
}

// AddOp appends an operation. Dependencies must reference ops already
// added, which guarantees the graph is acyclic by construction. The deps
// and resources slices are copied into the engine's flat storage, so the
// caller may reuse them across calls.
func (e *Engine) AddOp(label string, kind OpKind, duration float64, deps []OpID, resources []ResourceID) OpID {
	id := OpID(len(e.ops))
	if duration < 0 || math.IsNaN(duration) {
		panic(fmt.Sprintf("gpusim: op %q has invalid duration %g", label, duration))
	}
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("gpusim: op %q depends on unknown op %d", label, d))
		}
	}
	for _, r := range resources {
		if int(r) < 0 || int(r) >= len(e.resources) {
			panic(fmt.Sprintf("gpusim: op %q uses unknown resource %d", label, r))
		}
	}
	if len(e.depFlat)+len(deps) > math.MaxInt32 || len(e.resFlat)+len(resources) > math.MaxInt32 {
		panic("gpusim: CSR edge storage exceeds 2^31 entries")
	}
	if len(e.depOff) == 0 {
		e.depOff = append(e.depOff, 0)
		e.resOff = append(e.resOff, 0)
	}
	e.depFlat = append(e.depFlat, deps...)
	e.resFlat = append(e.resFlat, resources...)
	e.depOff = append(e.depOff, int32(len(e.depFlat)))
	e.resOff = append(e.resOff, int32(len(e.resFlat)))
	e.ops = append(e.ops, op{label: e.intern(label), kind: kind, duration: duration})
	return id
}

// NumOps returns the number of ops added so far.
func (e *Engine) NumOps() int { return len(e.ops) }

// Reset discards every op and resource so the engine can host a fresh DAG,
// keeping all storage — the CSR arrays, the interned label table, and the
// scheduler scratch — at capacity. A long-lived engine can therefore replay
// one DAG per sweep point with zero steady-state allocations once the
// largest point has been seen. The next Run rebuilds the reverse CSR
// unconditionally: builtOps is poisoned rather than zeroed, because a new
// DAG with the same op count as the old one would otherwise satisfy the
// "already built" check and reuse stale reverse edges.
func (e *Engine) Reset() {
	e.ops = e.ops[:0]
	e.depOff = e.depOff[:0]
	e.depFlat = e.depFlat[:0]
	e.resOff = e.resOff[:0]
	e.resFlat = e.resFlat[:0]
	e.resources = e.resources[:0]
	e.sched.builtOps = -1
}

// depsOf returns op id's dependency list (a view into the CSR storage).
func (e *Engine) depsOf(id OpID) []OpID {
	return e.depFlat[e.depOff[id]:e.depOff[id+1]]
}

// resourcesOf returns op id's resource list (a view into the CSR storage).
func (e *Engine) resourcesOf(id OpID) []ResourceID {
	return e.resFlat[e.resOff[id]:e.resOff[id+1]]
}

// runScratch is the engine-owned state a Run needs: the reverse-edge CSR
// (rebuilt only when ops were added since the last Run) and the per-run
// arrays, all grown once and reused so steady-state Runs allocate nothing.
type runScratch struct {
	builtOps int     // ops covered by the reverse CSR below
	rdepOff  []int32 // reverse (dependents) CSR
	rdepFlat []OpID

	depEnd    []float64 // latest finish among scheduled deps
	remaining []int32   // unscheduled dep count
	resAvail  []float64 // per-resource availability
	key       []float64 // cached feasible start of heap entries
	heap      []OpID    // indexed binary min-heap ordered by (key, id)
	pos       []int32   // op -> heap slot, -1 when absent
	rep       []int32   // per-resource lot representative op, -1 when none
	lotOf     []int32   // op -> resource lot it is rep of / parked in, -1
	lots      [][]OpID  // per-resource parked ops, min-heaps ordered by OpID
	timings   []OpTiming
	busy      []float64
}

// ensureReverse (re)builds the dependents CSR when ops were added since
// the last build. AddOp only appends, so a stale reverse CSR is simply
// rebuilt in two passes (count, fill) over the forward CSR.
func (e *Engine) ensureReverse() {
	n := len(e.ops)
	s := &e.sched
	if s.builtOps == n {
		return
	}
	s.rdepOff = grow(s.rdepOff, n+1)
	for i := range s.rdepOff {
		s.rdepOff[i] = 0
	}
	for _, d := range e.depFlat {
		s.rdepOff[d+1]++
	}
	for i := 1; i <= n; i++ {
		s.rdepOff[i] += s.rdepOff[i-1]
	}
	s.rdepFlat = grow(s.rdepFlat, len(e.depFlat))
	// Fill using a moving cursor per source op: walk ops in order, and for
	// each dep edge place the dependent at the next free slot of the dep's
	// bucket. Reuse the remaining array as the per-op cursor scratch (Run
	// re-initializes it afterwards).
	s.remaining = grow(s.remaining, n)
	fill := s.remaining[:n]
	for i := range fill {
		fill[i] = 0
	}
	for id := 0; id < n; id++ {
		for _, d := range e.depsOf(OpID(id)) {
			s.rdepFlat[s.rdepOff[d]+fill[d]] = OpID(id)
			fill[d]++
		}
	}
	s.builtOps = n
}

// grow reslices s to length n, reallocating (without preserving contents)
// only when the capacity is insufficient — the scratch-reuse primitive
// behind allocation-free repeated Runs.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// feasibleStartBinding returns the earliest instant op id could start
// given the current dependency ends and resource availability, and the
// binding resource: the first resource whose availability equals the
// start (preferring a resource over the dependency bound on ties, since
// only resource releases can push the start further). -1 when the
// dependency bound strictly dominates or the op uses no resources.
func (e *Engine) feasibleStartBinding(id OpID) (float64, int32) {
	s := &e.sched
	start := s.depEnd[id]
	binding := int32(-1)
	for _, r := range e.resourcesOf(id) {
		if s.resAvail[r] >= start {
			if s.resAvail[r] > start || binding < 0 {
				start = s.resAvail[r]
				binding = int32(r)
			}
		}
	}
	return start, binding
}

// heap ordering: by cached feasible start, ties to the lower OpID
// (program order, matching in-order issue per stream).
func (s *runScratch) heapLess(a, b OpID) bool {
	return s.key[a] < s.key[b] || (s.key[a] == s.key[b] && a < b)
}

func (s *runScratch) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = int32(i)
	s.pos[s.heap[j]] = int32(j)
}

func (s *runScratch) heapPush(id OpID) {
	s.heap = append(s.heap, id)
	i := len(s.heap) - 1
	s.pos[id] = int32(i)
	s.heapUp(i)
}

func (s *runScratch) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(s.heap[i], s.heap[parent]) {
			return
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

func (s *runScratch) heapDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.heapLess(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < n && s.heapLess(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.heapSwap(i, smallest)
		i = smallest
	}
}

func (s *runScratch) heapPopRoot() OpID {
	id := s.heap[0]
	last := len(s.heap) - 1
	s.heapSwap(0, last)
	s.heap = s.heap[:last]
	s.pos[id] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return id
}

// heapRemove deletes an arbitrary entry (used when a lot representative is
// displaced by a lower-id arrival) — the operation the heap is indexed for.
func (s *runScratch) heapRemove(id OpID) {
	i := int(s.pos[id])
	last := len(s.heap) - 1
	s.heapSwap(i, last)
	s.heap = s.heap[:last]
	s.pos[id] = -1
	if i < last {
		s.heapDown(i)
		s.heapUp(i)
	}
}

// Parking lots: per-resource min-heaps of parked ops ordered by OpID
// alone. Every parked op's true feasible start is at least its lot
// resource's availability (availability only advances), and ops bound by
// the same resource tie at exactly that availability, so program order —
// the id — is the only ordering that matters inside a lot.

func (s *runScratch) lotPush(r int32, id OpID) {
	lot := append(s.lots[r], id)
	i := len(lot) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if lot[parent] <= lot[i] {
			break
		}
		lot[parent], lot[i] = lot[i], lot[parent]
		i = parent
	}
	s.lots[r] = lot
}

func (s *runScratch) lotPop(r int32) OpID {
	lot := s.lots[r]
	id := lot[0]
	last := len(lot) - 1
	lot[0] = lot[last]
	lot = lot[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		smallest := i
		if l < last && lot[l] < lot[smallest] {
			smallest = l
		}
		if rr < last && lot[rr] < lot[smallest] {
			smallest = rr
		}
		if smallest == i {
			break
		}
		lot[i], lot[smallest] = lot[smallest], lot[i]
		i = smallest
	}
	s.lots[r] = lot
	return id
}

// enqueue makes a ready op a scheduling candidate. Ops whose feasible
// start is bound by a resource join that resource's lot: the lot keeps
// exactly one representative — the lowest-id member, since members bound
// by the same resource tie at its availability — in the heap, and parks
// the rest, so a resource release re-keys one candidate instead of every
// waiter. Unbound ops (dependency-limited or resource-free) enter the
// heap directly; their key is exact until some resource passes it.
func (e *Engine) enqueue(id OpID, start float64, binding int32) {
	s := &e.sched
	if binding < 0 {
		s.key[id] = start
		s.heapPush(id)
		return
	}
	w := s.rep[binding]
	switch {
	case w < 0:
		s.rep[binding] = int32(id)
		s.lotOf[id] = binding
		s.key[id] = start
		s.heapPush(id)
	case id < OpID(w):
		// Program order outranks the sitting representative: swap roles.
		s.heapRemove(OpID(w))
		s.lotPush(binding, OpID(w))
		s.rep[binding] = int32(id)
		s.lotOf[id] = binding
		s.key[id] = start
		s.heapPush(id)
	default:
		s.lotOf[id] = binding
		s.lotPush(binding, id)
	}
}

// promote refills lot r's representative after the sitting one left: the
// lowest-id parked member takes over with key resAvail[r]. That key is a
// lower bound, since the member uses r; whether r still binds it is
// settled only if it reaches the heap root, by the stale-key path in Run,
// which moves it to its new lot or re-keys it there. The other members
// stay parked until their turn.
func (e *Engine) promote(r int32) {
	s := &e.sched
	if len(s.lots[r]) == 0 {
		s.rep[r] = -1
		return
	}
	m := s.lotPop(r)
	s.rep[r] = int32(m)
	s.key[m] = s.resAvail[r]
	s.heapPush(m)
}

// Run simulates the DAG and returns the schedule.
//
// The scheduler is event-driven: candidate ops (dependencies all
// scheduled) sit in an indexed min-heap keyed by their cached feasible
// start. Cached keys go stale only by becoming too small — scheduling an
// op can only push resource availability forward, and dependency end
// times are final once an op is ready — so a key is a lower bound and
// lazy invalidation on resource release is sound: pop the minimum,
// recompute its feasible start, and either schedule it (key exact — it is
// the true minimum, program-order ties included) or re-key it. Ops
// blocked behind the same resource are parked in that resource's lot with
// a single heap representative (see enqueue), so a release costs O(log n)
// instead of re-keying every waiter — the incast/reduce storms of
// cluster-scale sweeps are exactly that shape. When a representative
// leaves, the next member takes its place at the lot resource's
// availability without being re-examined (see promote); a member bound
// elsewhere by then is moved when it reaches the root. The legacy O(ready)-rescan
// scheduler survives as RunListOracle and the equivalence tests pin the
// two schedules to each other bit for bit.
//
// The engine may be Run multiple times; each Run recomputes from scratch
// into reused engine-owned buffers (see Result), so steady-state Runs
// perform zero heap allocations.
func (e *Engine) Run() Result {
	n := len(e.ops)
	s := &e.sched
	e.ensureReverse() // may reuse s.remaining as scratch; reset below

	s.timings = grow(s.timings, n)
	s.busy = grow(s.busy, len(e.resources))
	res := Result{Timings: s.timings[:n], BusyTime: s.busy[:len(e.resources)]}
	for i := range res.BusyTime {
		res.BusyTime[i] = 0
	}
	if n == 0 {
		return res
	}

	s.depEnd = grow(s.depEnd, n)
	s.remaining = grow(s.remaining, n)
	s.resAvail = grow(s.resAvail, len(e.resources))
	s.key = grow(s.key, n)
	s.pos = grow(s.pos, n)
	s.rep = grow(s.rep, len(e.resources))
	s.lotOf = grow(s.lotOf, n)
	if cap(s.lots) < len(e.resources) {
		old := s.lots
		s.lots = make([][]OpID, len(e.resources))
		copy(s.lots, old)
	}
	s.lots = s.lots[:len(e.resources)]
	for i := range s.lots {
		s.lots[i] = s.lots[i][:0]
	}
	if cap(s.heap) < n {
		s.heap = make([]OpID, 0, n)
	}
	s.heap = s.heap[:0]
	for i := 0; i < n; i++ {
		s.depEnd[i] = 0
		s.remaining[i] = int32(e.depOff[i+1] - e.depOff[i])
		s.key[i] = 0
		s.pos[i] = -1
		s.lotOf[i] = -1
	}
	for i := range s.resAvail {
		s.resAvail[i] = 0
		s.rep[i] = -1
	}
	// Seed in program order: every op with no dependencies has feasible
	// start 0 on an idle machine (no resource is busy yet, so none binds).
	for i := 0; i < n; i++ {
		if s.remaining[i] == 0 {
			s.heapPush(OpID(i))
		}
	}

	scheduled := 0
	for scheduled < n {
		if len(s.heap) == 0 {
			panic("gpusim: no ready ops but schedule incomplete (dependency cycle?)")
		}
		id := s.heap[0]
		start, binding := e.feasibleStartBinding(id)
		if start > s.key[id] {
			// Stale key: a resource this op needs was claimed since the key
			// was cached.
			if s.lotOf[id] == binding {
				// Still representing the same lot (the storm fast path):
				// correct the key in place and re-sink.
				s.key[id] = start
				s.heapDown(0)
				continue
			}
			oldLot := s.lotOf[id]
			s.heapPopRoot()
			s.lotOf[id] = -1
			e.enqueue(id, start, binding)
			if oldLot >= 0 {
				e.promote(oldLot)
			}
			continue
		}
		s.heapPopRoot()
		if lot := s.lotOf[id]; lot >= 0 {
			s.lotOf[id] = -1
			e.promote(lot)
		}
		o := &e.ops[id]
		end := start + o.duration
		rs := e.resourcesOf(id)
		s.timings[id] = OpTiming{
			ID: id, Label: e.labels[o.label], Kind: o.kind,
			Start: start, End: end, Resources: rs,
		}
		for _, r := range rs {
			s.resAvail[r] = end
			res.BusyTime[r] += o.duration
		}
		if end > res.Makespan {
			res.Makespan = end
		}
		for _, dep := range s.rdepFlat[s.rdepOff[id]:s.rdepOff[id+1]] {
			if s.depEnd[dep] < end {
				s.depEnd[dep] = end
			}
			s.remaining[dep]--
			if s.remaining[dep] == 0 {
				ds, db := e.feasibleStartBinding(dep)
				e.enqueue(dep, ds, db)
			}
		}
		scheduled++
	}
	return res
}

// RunListOracle is the legacy O(ready)-scan list scheduler, kept verbatim
// as the reference implementation: Run must produce the identical schedule
// (makespans, per-op timings, program-order tie-breaks), which the
// equivalence tests pin across the conformance systems. Unlike Run it
// allocates fresh result and bookkeeping state on every call; use it for
// verification, not in hot paths.
func (e *Engine) RunListOracle() Result {
	n := len(e.ops)
	res := Result{
		Timings:  make([]OpTiming, n),
		BusyTime: make([]float64, len(e.resources)),
	}
	if n == 0 {
		return res
	}

	depEnd := make([]float64, n)    // latest finish among scheduled deps
	remaining := make([]int, n)     // unscheduled dep count
	dependents := make([][]OpID, n) // reverse edges
	for id := 0; id < n; id++ {
		deps := e.depsOf(OpID(id))
		remaining[id] = len(deps)
		for _, d := range deps {
			dependents[d] = append(dependents[d], OpID(id))
		}
	}
	resAvail := make([]float64, len(e.resources))

	// ready holds ops whose deps are all scheduled, in program order.
	ready := make([]OpID, 0, n)
	inReady := make([]bool, n)
	for id := 0; id < n; id++ {
		if remaining[id] == 0 {
			ready = append(ready, OpID(id))
			inReady[id] = true
		}
	}

	scheduled := 0
	for scheduled < n {
		if len(ready) == 0 {
			panic("gpusim: no ready ops but schedule incomplete (dependency cycle?)")
		}
		// Pick the ready op with the earliest feasible start; ties go to the
		// op added first (program order), matching in-order issue per stream.
		bestIdx := -1
		bestStart := math.Inf(1)
		for idx, id := range ready {
			start := depEnd[id]
			for _, r := range e.resourcesOf(id) {
				if resAvail[r] > start {
					start = resAvail[r]
				}
			}
			if start < bestStart || (start == bestStart && (bestIdx == -1 || id < ready[bestIdx])) {
				bestStart = start
				bestIdx = idx
			}
		}
		id := ready[bestIdx]
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		o := &e.ops[id]
		end := bestStart + o.duration
		res.Timings[id] = OpTiming{
			ID: id, Label: e.labels[o.label], Kind: o.kind,
			Start: bestStart, End: end, Resources: e.resourcesOf(id),
		}
		for _, r := range e.resourcesOf(id) {
			resAvail[r] = end
			res.BusyTime[r] += o.duration
		}
		if end > res.Makespan {
			res.Makespan = end
		}
		for _, dep := range dependents[id] {
			if depEnd[dep] < end {
				depEnd[dep] = end
			}
			remaining[dep]--
			if remaining[dep] == 0 && !inReady[dep] {
				ready = append(ready, dep)
				inReady[dep] = true
			}
		}
		scheduled++
	}
	return res
}

// QueueDelay derives queue delay from res, the schedule Run returned for
// this DAG: an op that starts after its latest dependency ended sat ready
// behind busy resources for the difference. It returns the total over all
// ops and, when perResource is non-nil (one entry per resource), charges
// each op's delay to its binding resource: the one whose previous
// occupant ended exactly at the op's start, the lowest ResourceID among
// ties. Run never computes it, so replays that do not ask pay nothing.
func (e *Engine) QueueDelay(res Result, perResource []float64) float64 {
	order := make([]OpID, len(e.ops))
	for i := range order {
		order[i] = OpID(i)
	}
	// Run schedules in nondecreasing start order, so walking the ops by
	// (start, id) replays each resource's availability as Run saw it.
	slices.SortFunc(order, func(a, b OpID) int {
		if c := cmp.Compare(res.Timings[a].Start, res.Timings[b].Start); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	avail := make([]float64, len(e.resources))
	total := 0.0
	for _, id := range order {
		tm := &res.Timings[id]
		ready := 0.0
		for _, d := range e.depsOf(id) {
			ready = max(ready, res.Timings[d].End)
		}
		if wait := tm.Start - ready; wait > 0 {
			total += wait
			binding := ResourceID(-1)
			for _, r := range tm.Resources {
				if avail[r] == tm.Start && (binding < 0 || r < binding) {
					binding = r
				}
			}
			if perResource != nil && binding >= 0 {
				perResource[binding] += wait
			}
		}
		for _, r := range tm.Resources {
			avail[r] = max(avail[r], tm.End)
		}
	}
	return total
}
