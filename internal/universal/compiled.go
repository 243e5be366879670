package universal

import (
	"encoding/json"
	"fmt"
	"sort"

	"slicing/internal/distmat"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
)

// MatrixKey is the canonical structural fingerprint of one distributed
// matrix for plan keying: everything the slicing pass reads from a matrix —
// global shape, effective tile shape, replication, and the tile→slot
// ownership table (folded into OwnerHash) — and nothing it doesn't (the
// Partition implementation's identity, the backing segment, the data).
// Two matrices with equal MatrixKeys are indistinguishable to BuildPlan:
// a RowBlock partition and a Custom descriptor that reproduces the same
// grid and ownership canonicalize to the same key.
type MatrixKey struct {
	Rows, Cols int
	// TileRows/TileCols are the shape of tile (0,0) — for the uniform
	// clipped-edge grids distmat builds, this plus the global shape
	// determines every tile's bounds.
	TileRows, TileCols int
	Replication        int
	// OwnerHash is distmat.Matrix.OwnerHash: an FNV-1a fold of the grid
	// shape and the row-major tile→owner-slot table, distinguishing
	// partitions that share a grid but assign tiles differently (blocked vs
	// cyclic).
	OwnerHash uint64
}

// PlanKey canonically identifies one compiled plan: the world size, the
// resolved stationary choice, the Config fields that alter plan structure
// (CacheTiles changes fetch decisions, SubTileFetch changes step shapes),
// and the three operands' structural fingerprints. Purely-runtime Config
// fields (PrefetchDepth, MaxInflight, Pool, Plans, SyncReplicas, Retry)
// deliberately do not appear: they tune execution of a plan, not the plan.
// PlanKey is comparable, so cache lookups allocate nothing.
type PlanKey struct {
	NumPE      int
	Stationary Stationary
	CacheTiles int
	SubTile    bool
	// Excluded fingerprints Config.Exclude — the set of ranks the plan
	// assigns no work (their ops are adopted by the survivors). 0 means no
	// exclusions, so plans serialized before the recovery subsystem existed
	// deserialize to the same key they were compiled under. Distinct
	// excluded sets get distinct keys, which is what makes repair plans
	// ordinary PlanCache entries: a second crash of the same rank hits the
	// cache instead of re-running the slicing pass.
	Excluded uint64
	// Order fingerprints the per-rank op order of a plan lowered from a
	// reordered schedule (CompileOrdered) — the mirror of Excluded. 0 means
	// the compiler's order: the one its order pass chose, which is always
	// on and so needs no key of its own. PlanKeyOf never sets Order, and
	// plans serialized before reordered plans existed deserialize to the key
	// they were compiled under. A file written before the order pass may
	// hold another order under Order 0; it validates against, and runs, the
	// order it stores until it is saved again. Any caller-chosen order gets
	// its own key, so a reordered plan Put into a PlanCache is never
	// returned for the direct key. It stays because persisted plans carry
	// it (plancache/v1), so a reordered plan keeps its own key across a
	// restart.
	Order   uint64
	A, B, C MatrixKey
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a running hash, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// matrixKeyOf computes a matrix's canonical fingerprint. It allocates
// nothing and reads the owner hash the matrix computed at construction, so
// a key costs the same whatever the tile count.
func matrixKeyOf(m *distmat.Matrix) MatrixKey {
	r0, c0 := m.TileBounds(index.TileIdx{}).Shape()
	return MatrixKey{
		Rows: m.Rows(), Cols: m.Cols(),
		TileRows: r0, TileCols: c0,
		Replication: m.Replication(),
		OwnerHash:   m.OwnerHash(),
	}
}

// PlanKeyOf computes the canonical cache key for (problem, config). It
// resolves StationaryAuto against the problem's shapes and normalizes
// CacheTiles, so every spelling of the same effective configuration maps to
// the same key. Allocation-free.
func PlanKeyOf(prob Problem, cfg Config) PlanKey {
	ct := cfg.CacheTiles
	if ct <= 0 {
		ct = DefaultCacheTiles
	}
	p := prob.C.World().NumPE()
	return PlanKey{
		NumPE:      p,
		Stationary: prob.ResolveStationary(cfg.Stationary),
		CacheTiles: ct,
		SubTile:    cfg.SubTileFetch,
		Excluded:   excludedHashOf(cfg.Exclude, p),
		A:          matrixKeyOf(prob.A),
		B:          matrixKeyOf(prob.B),
		C:          matrixKeyOf(prob.C),
	}
}

// excludedHashOf canonicalizes an excluded-rank set into the key's
// Excluded fingerprint: 0 for the empty set, otherwise an FNV-1a fold of
// the sorted distinct ranks, so permutations and duplicates spell the same
// key. Out-of-range ranks panic — an exclusion list that names ranks the
// world doesn't have is a membership bug, not a cache miss. Allocation-free
// when exclude is already sorted and duplicate-free (the form
// runtime.Membership.Excluded returns), keeping PlanKeyOf off the serving
// hot path's allocation budget.
func excludedHashOf(exclude []int, p int) uint64 {
	if len(exclude) == 0 {
		return 0
	}
	sorted := true
	for i, r := range exclude {
		if r < 0 || r >= p {
			panic(fmt.Sprintf("universal: excluded rank %d outside world of %d PEs", r, p))
		}
		if i > 0 && r <= exclude[i-1] {
			sorted = false
		}
	}
	if !sorted {
		exclude = normalizeExclude(exclude)
	}
	h := uint64(fnvOffset64)
	for _, r := range exclude {
		h = fnvMix(h, uint64(r))
	}
	return h
}

// normalizeExclude returns the sorted duplicate-free copy of exclude.
func normalizeExclude(exclude []int) []int {
	out := append([]int(nil), exclude...)
	sort.Ints(out)
	n := 0
	for i, r := range out {
		if i == 0 || r != out[n-1] {
			out[n] = r
			n++
		}
	}
	return out[:n]
}

// CompiledPlan is the immutable, world-level compiled artifact of the §4.1
// slicing pass: every rank's Step sequence plus the precomputed executor
// fetch schedule (the plan-time tile-LRU replay) for each. Once compiled it
// is never mutated, so any number of concurrent multiplies — different PEs
// of one collective call, or successive serving requests — may execute it
// simultaneously. Plans depend only on structure (shapes, partitionings,
// replication, world size), never on matrix contents or identity, so one
// CompiledPlan serves every problem whose PlanKey matches.
type CompiledPlan struct {
	Key   PlanKey
	Plans []Plan // indexed by rank
	// scheds mirrors Plans: the executor's precomputed tile-LRU replay.
	// Recomputed deterministically from (Plans, Key.CacheTiles) after
	// deserialization.
	scheds []fetchSchedule
	// solo is 1 + the rank that completes the multiply alone (see
	// SoloRank), 0 when none does, so a zero CompiledPlan claims no rank.
	// Derived from Plans and Key.C like scheds, and recomputed on load.
	solo int
}

// Stationary returns the resolved data-movement strategy the plan encodes.
func (cp *CompiledPlan) Stationary() Stationary { return cp.Key.Stationary }

// SoloRank returns the rank that completes the multiply alone: every step
// of the plan is on that rank, and C has a single replica, so no other
// rank's accumulate or replica reduction touches C. Once that rank has
// retired its last chain of the plan without a fault (Execute's retired
// report), C holds the product, before the collective's closing barrier.
// ok is false when the work spans ranks or C is replicated.
func (cp *CompiledPlan) SoloRank() (rank int, ok bool) { return cp.solo - 1, cp.solo > 0 }

// soloOf computes SoloRank's encoded form from the rank plans.
func (cp *CompiledPlan) soloOf() int {
	if cp.Key.C.Replication != 1 {
		return 0
	}
	solo := 0
	for r := range cp.Plans {
		if len(cp.Plans[r].Steps) == 0 {
			continue
		}
		if solo > 0 {
			return 0
		}
		solo = r + 1
	}
	return solo
}

// Steps returns the total step count across all ranks.
func (cp *CompiledPlan) Steps() int {
	n := 0
	for i := range cp.Plans {
		n += len(cp.Plans[i].Steps)
	}
	return n
}

// CompilePlans runs the slicing pass for every rank and freezes the result
// into a CompiledPlan. Rank plans are independent, so they fan out across a
// worker pool. The plan cache is memoization of exactly this call.
//
// When cfg.Exclude names ranks, the compiled plan covers the shrunken
// world: excluded ranks get empty plans (they still barrier, so the
// collective shape is unchanged) and their ops are adopted round-robin by
// the survivors with locality re-resolved per adopter — the plan-repair
// primitive the recovery subsystem builds on. At least one rank must
// survive.
func CompilePlans(prob Problem, cfg Config) *CompiledPlan {
	key := PlanKeyOf(prob, cfg)
	cp := &CompiledPlan{
		Key:    key,
		Plans:  make([]Plan, key.NumPE),
		scheds: make([]fetchSchedule, key.NumPE),
	}
	excluded := normalizeExclude(cfg.Exclude)
	if len(excluded) == key.NumPE {
		panic(fmt.Sprintf("universal: all %d ranks excluded", key.NumPE))
	}
	rt.ForEachIndex(key.NumPE, func(rank int) {
		cp.Plans[rank] = compileRank(rank, prob, key, excluded, &cp.scheds[rank])
	})
	cp.solo = cp.soloOf()
	return cp
}

// CompileOrdered is CompilePlans with each rank's ops in a caller-chosen
// order — §4.3's "reordered and lowered" as the same list in another order.
// It stays as a test hook: E8 prices the generated order through it, and
// the order-independence tests and ROADMAP item 3's fuzzer permute with it.
// order receives a rank's compiled plan and returns the step indices in the
// order to execute them; the permuted steps are walked again at
// key.CacheTiles (permuteSteps, resolveFetches), so fetch flags, chains, the
// fetch schedule and evictions follow the new order, and the result
// executes, replays, caches and serializes like any CompiledPlan. Each rank
// is lowered once, by CompilePlans. order is called one rank at a time;
// anything but a permutation panics.
func CompileOrdered(prob Problem, cfg Config, order func(rank int, pl Plan) []int) *CompiledPlan {
	cp := CompilePlans(prob, cfg)
	h, reordered := uint64(fnvOffset64), false
	for rank := range cp.Plans {
		pl := &cp.Plans[rank]
		perm := order(rank, *pl)
		if len(perm) != len(pl.Steps) {
			panic(fmt.Sprintf("universal: rank %d order names %d of %d steps", rank, len(perm), len(pl.Steps)))
		}
		seen := make([]bool, len(perm))
		for i, j := range perm {
			if j < 0 || j >= len(perm) || seen[j] {
				panic(fmt.Sprintf("universal: rank %d order is not a permutation (entry %d = %d)", rank, i, j))
			}
			seen[j] = true
			reordered = reordered || i != j
			h = fnvMix(h, uint64(j))
		}
		pl.Steps = permuteSteps(pl.Steps, perm)
		resolveFetches(pl.Steps, cp.Key.CacheTiles, &cp.scheds[rank])
	}
	if reordered {
		cp.Key.Order = h
	}
	return cp
}

// compileRank is the slicing pass for one rank, and the only code that
// knows its pipeline: generate the rank's ops (§4.1), deal it the excluded
// ranks' ops, lower them once, choose their order (orderSteps), and walk
// that order at key.CacheTiles, which decides the steps' fetch and chain
// flags and fills the fetch schedule (into sched, when non-nil) — both in
// one walk, so a schedule cannot disagree with its plan. It reads only the
// key's plan-shaping scalars (Stationary, CacheTiles, SubTile, and NumPE
// when ranks are excluded); excluded must be sorted and duplicate-free.
func compileRank(rank int, prob Problem, key PlanKey, excluded []int, sched *fetchSchedule) Plan {
	var ops []LocalOp // an excluded rank keeps none
	own := 0
	if i := sort.SearchInts(excluded, rank); i == len(excluded) || excluded[i] != rank {
		ops = GenerateOps(rank, prob, key.Stationary)
		own = len(ops)
		ops = append(ops, adoptedOps(prob, key.Stationary, excluded, rank-i, key.NumPE-len(excluded))...)
	}
	cache := newTileLRU(key.CacheTiles)
	steps := orderSteps(lowerOps(rank, prob, ops, key.SubTile), own, key.Stationary, cache)
	cache.walk(steps, sched)
	return Plan{Rank: rank, Stationary: key.Stationary, Steps: steps}
}

// adoptedOps returns the slice of the excluded ranks' ops adopted by the
// survivor at position pos (of nsurv, in rank order) under the
// deterministic round-robin redistribution: the excluded ranks' generated
// ops, concatenated in (excluded rank, op index) order, dealt one at a
// time across the sorted survivors. Every rank — with no communication —
// computes the same global deal. Ops adopted by a survivor in another
// replica group still land each elementary product exactly once: A/B
// replica reads are identical copies, and ReduceReplicas sums whichever
// replica slot an accumulate reached into the origin.
func adoptedOps(prob Problem, stat Stationary, excluded []int, pos, nsurv int) []LocalOp {
	var out []LocalOp
	next := 0
	for _, f := range excluded {
		for _, op := range GenerateOps(f, prob, stat) {
			if next%nsurv == pos {
				out = append(out, op)
			}
			next++
		}
	}
	return out
}

// compiledPlanJSON is the serialized form: the key and the step schedules.
// Fetch schedules and the solo rank are derived data, recomputed on load.
type compiledPlanJSON struct {
	Key   PlanKey `json:"key"`
	Plans []Plan  `json:"plans"`
}

// MarshalJSON serializes the compiled plan so a tuned plan survives process
// restarts (load it back with UnmarshalJSON and seed a PlanCache via Put).
func (cp *CompiledPlan) MarshalJSON() ([]byte, error) {
	return json.Marshal(compiledPlanJSON{Key: cp.Key, Plans: cp.Plans})
}

// UnmarshalJSON deserializes and validates a compiled plan, then rederives
// the per-rank fetch schedules and the solo rank. The bytes come from
// outside the program (a plancache/v1 file), and the executor trusts a plan
// completely, so everything it relies on is checked here: malformed input —
// wrong rank count, out-of-range tile indices or owner ranks, ops outside
// the tiles they name, locality, fetch or chain flags the slicing pass would
// not have produced (a file written before plans had chains, for a plan
// that has them, is such a file) — returns an error rather than panicking
// later inside a PE; the package fuzz target hammers this path.
func (cp *CompiledPlan) UnmarshalJSON(data []byte) error {
	var raw compiledPlanJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := CompiledPlan{Key: raw.Key, Plans: raw.Plans}
	if err := out.validate(); err != nil {
		return err
	}
	out.scheds = make([]fetchSchedule, len(out.Plans))
	for r := range out.Plans {
		if resolveFetches(out.Plans[r].Steps, out.Key.CacheTiles, &out.scheds[r]) {
			return fmt.Errorf("universal: rank %d fetch or chain flags disagree with the %d-tile LRU replay", r, out.Key.CacheTiles)
		}
	}
	out.solo = out.soloOf()
	*cp = out
	return nil
}

// gridOf rebuilds a matrix key's tile grid from its global and first-tile
// shapes (uniform clipped-edge grids).
func gridOf(mk MatrixKey) (index.Grid, error) {
	if mk.Rows <= 0 || mk.Cols <= 0 || mk.TileRows <= 0 || mk.TileCols <= 0 {
		return index.Grid{}, fmt.Errorf("universal: invalid matrix key shape %dx%d tiles %dx%d",
			mk.Rows, mk.Cols, mk.TileRows, mk.TileCols)
	}
	return index.Grid{Rows: mk.Rows, Cols: mk.Cols, TileRows: mk.TileRows, TileCols: mk.TileCols}, nil
}

// within reports whether iv is a well-formed interval inside both outers.
func within(iv, outer1, outer2 index.Interval) bool {
	return iv.Begin <= iv.End &&
		iv.Begin >= outer1.Begin && iv.End <= outer1.End &&
		iv.Begin >= outer2.Begin && iv.End <= outer2.End
}

// validate checks the structural invariants execution relies on.
func (cp *CompiledPlan) validate() error {
	k := cp.Key
	if k.NumPE <= 0 || k.NumPE > 1<<20 {
		return fmt.Errorf("universal: compiled plan has invalid world size %d", k.NumPE)
	}
	if len(cp.Plans) != k.NumPE {
		return fmt.Errorf("universal: compiled plan has %d rank plans for %d PEs", len(cp.Plans), k.NumPE)
	}
	if k.CacheTiles <= 0 {
		return fmt.Errorf("universal: compiled plan has non-normalized cache capacity %d", k.CacheTiles)
	}
	if k.Stationary != StationaryA && k.Stationary != StationaryB && k.Stationary != StationaryC {
		return fmt.Errorf("universal: compiled plan has unresolved stationary %v", k.Stationary)
	}
	var grids [3]index.Grid
	for i, mk := range [...]MatrixKey{k.A, k.B, k.C} {
		if mk.Replication <= 0 || k.NumPE%mk.Replication != 0 {
			return fmt.Errorf("universal: replication %d does not divide %d PEs", mk.Replication, k.NumPE)
		}
		var err error
		if grids[i], err = gridOf(mk); err != nil {
			return err
		}
	}
	ga, gb, gc := grids[0], grids[1], grids[2]
	for r := range cp.Plans {
		pl := &cp.Plans[r]
		if pl.Rank != r {
			return fmt.Errorf("universal: plan slot %d claims rank %d", r, pl.Rank)
		}
		if pl.Stationary != k.Stationary {
			return fmt.Errorf("universal: rank %d plan stationary %v != key %v", r, pl.Stationary, k.Stationary)
		}
		for i, s := range pl.Steps {
			op := s.Op
			if !ga.Valid(op.AIdx) || !gb.Valid(op.BIdx) || !gc.Valid(op.CIdx) {
				return fmt.Errorf("universal: rank %d step %d names tiles A%v B%v C%v outside their grids", r, i, op.AIdx, op.BIdx, op.CIdx)
			}
			// The executor slices fetched tiles and the C tile to the op's
			// bounds without further checks.
			ab, bb, cb := ga.TileBounds(op.AIdx), gb.TileBounds(op.BIdx), gc.TileBounds(op.CIdx)
			if !within(op.M, ab.Rows, cb.Rows) || !within(op.K, ab.Cols, bb.Rows) || !within(op.N, bb.Cols, cb.Cols) {
				return fmt.Errorf("universal: rank %d step %d op M%v K%v N%v outside tiles A%v B%v C%v", r, i, op.M, op.K, op.N, ab, bb, cb)
			}
			for _, src := range [...]int{s.ASrc, s.BSrc, s.CDst} {
				if src < 0 || src >= k.NumPE {
					return fmt.Errorf("universal: rank %d step %d names rank %d of %d", r, i, src, k.NumPE)
				}
			}
			if s.ALocal != (s.ASrc == r) || s.BLocal != (s.BSrc == r) || s.CLocal != (s.CDst == r) {
				return fmt.Errorf("universal: rank %d step %d locality flags contradict owner ranks", r, i)
			}
			if s.ABytes < 0 || s.BBytes < 0 || s.AccumBytes < 0 {
				return fmt.Errorf("universal: rank %d step %d has negative byte counts", r, i)
			}
			if s.SubTile != k.SubTile {
				return fmt.Errorf("universal: rank %d step %d fetch mode disagrees with key", r, i)
			}
		}
	}
	return nil
}

// Matches reports whether the compiled plan is valid for (problem, config):
// the problem/config pair canonicalizes to the plan's key, in whatever order
// the plan runs its ops.
func (cp *CompiledPlan) Matches(prob Problem, cfg Config) bool {
	key := cp.Key
	key.Order = 0
	return PlanKeyOf(prob, cfg) == key
}

// Execute runs the calling rank's slice of one or more compiled plans as
// one fused group: a single crew per PE runs every plan's GEMM→accumulate
// chains back-to-back, so a batch of small multiplies pays one crew start
// and one drain instead of one per request — the serving layer's
// grouped-plan batching; Multiply is the same loop on a batch of one.
// probs[i] must match cps[i]'s key (Matches), and the problems' result
// matrices must be pairwise distinct from each other and from every operand
// (their interleaved one-sided accumulates are unsynchronized and must
// commute). Performs no collective synchronization; callers Finish
// afterwards.
//
// retired, when non-nil, is called once with i for each plan i that has
// steps on this rank, as soon as the last of its chains here has retired,
// provided no fatal fault has stopped the run by then. It runs on whichever
// of the rank's goroutines retired that chain, concurrently with the rest of
// the batch, and Execute allocates nothing to make the call. For a plan with
// a SoloRank it is the moment C holds the product, since a synchronous
// accumulate has landed when it returns (runtime.PE).
//
// Fault semantics: the fused plans share one crew and one abort flag, so
// this rank's first fatal fault (after per-op retries) stops dispatch
// across the WHOLE batch and is returned once — the serving layer fails
// every fused request it has not yet answered, since there is no telling
// which plans' accumulates had already landed. Pooled buffers balance
// either way.
func Execute(pe rt.PE, probs []Problem, cps []*CompiledPlan, cfg Config, retired func(i int)) error {
	if len(probs) != len(cps) {
		panic("universal: Execute problem/plan count mismatch")
	}
	return execute(pe, probs, cps, cfg.withDefaults(), retired)
}
