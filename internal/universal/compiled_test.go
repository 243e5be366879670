package universal

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/modelworld"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

// draw is one random configuration of the plan-key property tests: enough
// structure to build a problem, plus config fields both structural and
// runtime-only.
type planDraw struct {
	p, m, n, k          int
	partA, partB, partC distmat.Partition
	cA, cB, cC          int
	cfg                 Config
}

func divisorsOf(p int) []int {
	var ds []int
	for d := 1; d <= p; d++ {
		if p%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

func randPartition(rng *rand.Rand, slots int) distmat.Partition {
	switch rng.Intn(4) {
	case 0:
		return distmat.RowBlock{}
	case 1:
		return distmat.ColBlock{}
	case 2:
		return distmat.Block2D{}
	default:
		pr, pc := distmat.NearSquareFactors(slots)
		return distmat.Custom{
			TileRows: 1 + rng.Intn(9), TileCols: 1 + rng.Intn(13),
			ProcRows: pr, ProcCols: pc,
		}
	}
}

func randomPlanDraw(rng *rand.Rand) planDraw {
	ps := []int{1, 2, 4, 6}
	d := planDraw{
		p: ps[rng.Intn(len(ps))],
		m: 1 + rng.Intn(40),
		n: 1 + rng.Intn(40),
		k: 1 + rng.Intn(40),
	}
	divs := divisorsOf(d.p)
	d.cA = divs[rng.Intn(len(divs))]
	d.cB = divs[rng.Intn(len(divs))]
	d.cC = divs[rng.Intn(len(divs))]
	d.partA = randPartition(rng, d.p/d.cA)
	d.partB = randPartition(rng, d.p/d.cB)
	d.partC = randPartition(rng, d.p/d.cC)
	d.cfg = Config{
		Stationary:   Stationary(rng.Intn(4)), // Auto, A, B, or C
		CacheTiles:   rng.Intn(9),             // 0 exercises normalization
		SubTileFetch: rng.Intn(2) == 0,
		// Runtime-only fields, randomized to prove they never reach the key.
		PrefetchDepth: rng.Intn(5),
		MaxInflight:   rng.Intn(5),
		SyncReplicas:  rng.Intn(2) == 0,
	}
	return d
}

// buildDraw materializes a draw into a fresh world + problem.
func buildDraw(d planDraw) Problem {
	w := shmem.NewWorld(d.p)
	a := distmat.New(w, d.m, d.k, d.partA, d.cA)
	b := distmat.New(w, d.k, d.n, d.partB, d.cB)
	c := distmat.New(w, d.m, d.n, d.partC, d.cC)
	return NewProblem(c, a, b)
}

// Property: structurally identical problems built from independent worlds
// and matrices canonicalize to equal keys, and equal keys compile to
// step-for-step identical plans (key-equality ⇒ plan-equality); perturbing
// any structural input changes the key (plan-relevant inputs are injective
// into the key up to canonicalization).
func TestPlanKeyPropertyRandomDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		d := randomPlanDraw(rng)
		p1 := buildDraw(d)
		p2 := buildDraw(d) // independent world, same structure
		k1, k2 := PlanKeyOf(p1, d.cfg), PlanKeyOf(p2, d.cfg)
		if k1 != k2 {
			t.Fatalf("trial %d: same draw produced different keys\n%+v\n%+v", trial, k1, k2)
		}
		cp1, cp2 := CompilePlans(p1, d.cfg), CompilePlans(p2, d.cfg)
		if !reflect.DeepEqual(cp1.Plans, cp2.Plans) {
			t.Fatalf("trial %d: equal keys compiled to different plans", trial)
		}
		if !reflect.DeepEqual(cp1.scheds, cp2.scheds) {
			t.Fatalf("trial %d: equal keys produced different fetch schedules", trial)
		}

		// Structural perturbations must change the key.
		bigger := d
		bigger.m++
		if PlanKeyOf(buildDraw(bigger), d.cfg) == k1 {
			t.Fatalf("trial %d: m+1 did not change the key", trial)
		}
		flipped := d.cfg
		flipped.SubTileFetch = !flipped.SubTileFetch
		if PlanKeyOf(p1, flipped) == k1 {
			t.Fatalf("trial %d: flipping SubTileFetch did not change the key", trial)
		}
		cached := d.cfg
		cached.CacheTiles = k1.CacheTiles + 1
		if PlanKeyOf(p1, cached) == k1 {
			t.Fatalf("trial %d: changing CacheTiles did not change the key", trial)
		}

		// Runtime-only perturbations must NOT change the key.
		runtimeOnly := d.cfg
		runtimeOnly.PrefetchDepth += 3
		runtimeOnly.MaxInflight += 7
		runtimeOnly.SyncReplicas = !runtimeOnly.SyncReplicas
		runtimeOnly.Plans = NewPlanCache(1)
		if PlanKeyOf(p1, runtimeOnly) != k1 {
			t.Fatalf("trial %d: runtime-only config fields leaked into the key", trial)
		}
	}
}

// Different Partition implementations that reproduce the same grid and
// ownership are the same structure to the slicing pass; the key must not
// see the implementation's identity.
func TestPlanKeyCanonicalizesEquivalentPartitions(t *testing.T) {
	const p, m, n, k = 4, 23, 29, 31
	rowAsCustom := func(rows, cols int) distmat.Partition {
		return distmat.Custom{
			TileRows: (rows + p - 1) / p, TileCols: cols,
			ProcRows: p, ProcCols: 1,
		}
	}
	w1 := shmem.NewWorld(p)
	prob1 := NewProblem(
		distmat.New(w1, m, n, distmat.RowBlock{}, 1),
		distmat.New(w1, m, k, distmat.RowBlock{}, 1),
		distmat.New(w1, k, n, distmat.RowBlock{}, 1),
	)
	w2 := shmem.NewWorld(p)
	prob2 := NewProblem(
		distmat.New(w2, m, n, rowAsCustom(m, n), 1),
		distmat.New(w2, m, k, rowAsCustom(m, k), 1),
		distmat.New(w2, k, n, rowAsCustom(k, n), 1),
	)
	cfg := DefaultConfig()
	k1, k2 := PlanKeyOf(prob1, cfg), PlanKeyOf(prob2, cfg)
	if k1 != k2 {
		t.Fatalf("RowBlock and its Custom spelling keyed differently:\n%+v\n%+v", k1, k2)
	}
	if !reflect.DeepEqual(CompilePlans(prob1, cfg).Plans, CompilePlans(prob2, cfg).Plans) {
		t.Fatal("equivalent partitions compiled to different plans")
	}

	// A partition sharing the grid but not the ownership (cyclic vs blocked
	// column assignment) must key differently via the owner hash.
	w3 := shmem.NewWorld(p)
	cyc := distmat.Custom{TileRows: m, TileCols: 3, ProcRows: 1, ProcCols: p}
	prob3 := NewProblem(
		distmat.New(w3, m, n, cyc, 1),
		distmat.New(w3, m, k, distmat.RowBlock{}, 1),
		distmat.New(w3, k, n, distmat.RowBlock{}, 1),
	)
	w4 := shmem.NewWorld(p)
	swapped := distmat.Custom{TileRows: m, TileCols: 3, ProcRows: p, ProcCols: 1}
	prob4 := NewProblem(
		distmat.New(w4, m, n, swapped, 1),
		distmat.New(w4, m, k, distmat.RowBlock{}, 1),
		distmat.New(w4, k, n, distmat.RowBlock{}, 1),
	)
	if PlanKeyOf(prob3, cfg) == PlanKeyOf(prob4, cfg) {
		t.Fatal("partitions with equal grids but different ownership share a key")
	}
}

// Zero-value and explicitly-defaulted configs spell the same effective
// configuration and must share a key.
func TestPlanKeyNormalizesConfigSpellings(t *testing.T) {
	prob := buildDraw(planDraw{
		p: 4, m: 20, n: 24, k: 28,
		partA: distmat.RowBlock{}, partB: distmat.ColBlock{}, partC: distmat.Block2D{},
		cA: 1, cB: 1, cC: 1,
	})
	zero := PlanKeyOf(prob, Config{})
	dflt := PlanKeyOf(prob, DefaultConfig())
	if zero != dflt {
		t.Fatalf("zero config %+v != default config %+v", zero, dflt)
	}
	if zero.CacheTiles != DefaultCacheTiles {
		t.Fatalf("key did not normalize CacheTiles: %d", zero.CacheTiles)
	}
	if zero.Stationary == StationaryAuto {
		t.Fatal("key did not resolve StationaryAuto")
	}
}

// Serialize → deserialize must reproduce bit-identical step schedules and
// fetch schedules, for the generated order and for a reordered plan alike,
// and a file written before PlanKey had an Order field must decode to the
// key it was compiled under.
func TestCompiledPlanJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		d := randomPlanDraw(rng)
		prob := buildDraw(d)
		for name, cp := range map[string]*CompiledPlan{
			"generated": CompilePlans(prob, d.cfg),
			"reversed":  CompileOrdered(prob, d.cfg, reversedOrder),
		} {
			blob, err := json.Marshal(cp)
			if err != nil {
				t.Fatalf("trial %d %s: marshal: %v", trial, name, err)
			}
			if name == "generated" {
				if cp.Key.Order != 0 {
					t.Fatalf("trial %d: generated order has Order %#x, want 0", trial, cp.Key.Order)
				}
				old := bytes.Replace(blob, []byte(`"Order":0,`), nil, 1)
				if len(old) == len(blob) {
					t.Fatalf("trial %d: no Order field to strip from %.80s", trial, blob)
				}
				blob = old
			}
			var back CompiledPlan
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatalf("trial %d %s: unmarshal: %v", trial, name, err)
			}
			if back.Key != cp.Key {
				t.Fatalf("trial %d %s: key changed across round trip", trial, name)
			}
			if !reflect.DeepEqual(back.Plans, cp.Plans) {
				t.Fatalf("trial %d %s: step schedules not bit-identical across round trip", trial, name)
			}
			if !reflect.DeepEqual(back.scheds, cp.scheds) {
				t.Fatalf("trial %d %s: recompiled fetch schedules differ", trial, name)
			}
			if back.solo != cp.solo {
				t.Fatalf("trial %d %s: solo rank %d recomputed as %d", trial, name, cp.solo-1, back.solo-1)
			}
		}
	}
}

// SoloRank names the one rank that completes a multiply alone, and only
// when C has a single replica; it survives a plancache/v1 round trip,
// where it is recomputed.
func TestSoloRank(t *testing.T) {
	w := shmem.NewWorld(4)
	one := distmat.Custom{TileRows: 16, TileCols: 16, ProcRows: 2, ProcCols: 2}
	fine := distmat.Custom{TileRows: 8, TileCols: 8, ProcRows: 2, ProcCols: 2}
	pair := distmat.Custom{TileRows: 16, TileCols: 16, ProcRows: 1, ProcCols: 2}
	mat := func(part distmat.Partition, repl int) *distmat.Matrix { return distmat.New(w, 16, 16, part, repl) }
	for _, tc := range []struct {
		name    string
		prob    Problem
		stat    Stationary
		exclude []int
		rank    int // -1: none
	}{
		{"one tile", NewProblem(mat(one, 1), mat(one, 1), mat(one, 1)), StationaryAuto, nil, 0},
		{"one tile, rank 0 excluded", NewProblem(mat(one, 1), mat(one, 1), mat(one, 1)), StationaryAuto, []int{0}, 1},
		{"spanning", NewProblem(mat(fine, 1), mat(fine, 1), mat(fine, 1)), StationaryAuto, nil, -1},
		// A's one tile is on rank 0, which does the whole product into its
		// own replica of C; replica 1 gets it only from the reduction.
		{"replicated C", NewProblem(mat(pair, 2), mat(one, 1), mat(one, 1)), StationaryA, nil, -1},
	} {
		cfg := DefaultConfig()
		cfg.Stationary, cfg.Exclude = tc.stat, tc.exclude
		cp := CompilePlans(tc.prob, cfg)
		busy := 0
		for _, pl := range cp.Plans {
			if len(pl.Steps) > 0 {
				busy++
			}
		}
		rank, ok := cp.SoloRank()
		if !ok {
			rank = -1
		}
		if rank != tc.rank {
			t.Errorf("%s: SoloRank %d (%d ranks with steps), want %d", tc.name, rank, busy, tc.rank)
		}
		if tc.name == "replicated C" && busy != 1 {
			t.Fatalf("%s: %d ranks with steps; the case needs one", tc.name, busy)
		}
		blob, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var back CompiledPlan
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if r, ok := back.SoloRank(); (ok && r != tc.rank) || ok != (tc.rank >= 0) {
			t.Errorf("%s: SoloRank after a round trip %d, %v; want %d", tc.name, r, ok, tc.rank)
		}
	}
	if _, ok := new(CompiledPlan).SoloRank(); ok {
		t.Error("a zero CompiledPlan claims a solo rank")
	}
}

// CompileOrdered's contract at its edges: the identity order is the
// generated plan under the generated key, a reordered plan seeded into a
// cache never answers a lookup for the direct key, and an order that is not
// a permutation is a programming error.
func TestCompileOrderedKeysAndPanics(t *testing.T) {
	prob := buildDraw(planDraw{
		p: 4, m: 23, n: 29, k: 31,
		partA: distmat.RowBlock{}, partB: distmat.ColBlock{}, partC: distmat.Block2D{},
		cA: 1, cB: 1, cC: 1,
	})
	cfg := DefaultConfig()
	direct := CompilePlans(prob, cfg)
	same := CompileOrdered(prob, cfg, func(_ int, pl Plan) []int {
		perm := make([]int, len(pl.Steps))
		for i := range perm {
			perm[i] = i
		}
		return perm
	})
	if same.Key != direct.Key || !reflect.DeepEqual(same.Plans, direct.Plans) || !reflect.DeepEqual(same.scheds, direct.scheds) {
		t.Fatal("identity order did not reproduce the generated plan and key")
	}

	cache := NewPlanCache(4)
	cache.Put(CompileOrdered(prob, cfg, reversedOrder))
	if got := cache.GetOrCompile(prob, cfg); got.Key != direct.Key || cache.Stats().Builds != 1 {
		t.Fatalf("lookup for the direct key returned key %+v after %d builds, want a fresh compile", got.Key, cache.Stats().Builds)
	}

	for name, order := range map[string]func(int, Plan) []int{
		"short":     func(_ int, pl Plan) []int { return make([]int, len(pl.Steps)-1) },
		"duplicate": func(_ int, pl Plan) []int { return make([]int, len(pl.Steps)) },
		"range": func(_ int, pl Plan) []int {
			perm := reversedOrder(0, pl)
			perm[0] = len(perm)
			return perm
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s order did not panic", name)
				}
			}()
			CompileOrdered(prob, cfg, order)
		}()
	}
}

// A reordered plan is an ordinary CompiledPlan: compiled through
// CompileOrdered and run by the one executor it must match the serial
// reference, for a seeded random permutation and the reversed order, on a
// misaligned problem with a replicated C.
func TestCompiledProgramsExecuteCorrect(t *testing.T) {
	const p, m, n, k = 4, 22, 26, 18
	shuffled := func(rank int, pl Plan) []int {
		return rand.New(rand.NewSource(int64(31 + rank))).Perm(len(pl.Steps))
	}
	for _, tc := range []struct {
		name  string
		order func(int, Plan) []int
	}{{"random", shuffled}, {"reversed", reversedOrder}} {
		t.Run(tc.name, func(t *testing.T) {
			w := shmem.NewWorld(p)
			a := distmat.New(w, m, k, distmat.Custom{TileRows: 5, TileCols: 7, ProcRows: 2, ProcCols: 2}, 1)
			b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
			c := distmat.New(w, m, n, distmat.Block2D{}, 2)
			prob := NewProblem(c, a, b)
			cfg := DefaultConfig()
			cfg.SyncReplicas = true
			cp := CompileOrdered(prob, cfg, tc.order)
			direct := CompilePlans(prob, cfg)
			if cp.Steps() != direct.Steps() || !cp.Matches(prob, cfg) || cp.Key.Order == 0 {
				t.Fatalf("reordered plan has %d steps (direct %d), matches=%v, order %#x", cp.Steps(), direct.Steps(), cp.Matches(prob, cfg), cp.Key.Order)
			}
			var ref, got *tile.Matrix
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 7)
				b.FillRandom(pe, 8)
				c.Zero(pe)
				err := Execute(pe, []Problem{prob}, []*CompiledPlan{cp}, cfg, nil)
				Finish(pe, []Problem{prob}, cfg)
				if err != nil {
					t.Errorf("rank %d: %v", pe.Rank(), err)
				}
				pe.Barrier()
				if pe.Rank() == 0 {
					ref = tile.New(m, n)
					tile.GemmNaive(ref, a.Gather(pe, 0), b.Gather(pe, 0))
					got = c.Gather(pe, 0)
				}
			})
			if !got.AllClose(ref, 1e-3) {
				t.Fatalf("result mismatch, maxdiff %g", got.MaxAbsDiff(ref))
			}
		})
	}
}

// A serialized plan seeded into a fresh cache (the restart path) must serve
// Multiply without a single slicing pass and still produce the right C.
func TestCompiledPlanSurvivesRestart(t *testing.T) {
	const p, m, n, k = 4, 23, 29, 31
	w := shmem.NewWorld(p)
	a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
	b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
	c := distmat.New(w, m, n, distmat.Block2D{}, 1)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 101)
		b.FillRandom(pe, 202)
	})
	ref := referenceProduct(m, n, k, 101, 202, a, b, w)
	prob := NewProblem(c, a, b)
	cfg := DefaultConfig()

	blob, err := json.Marshal(CompilePlans(prob, cfg))
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh cache seeded only from the serialized bytes.
	var loaded CompiledPlan
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	if !loaded.Matches(prob, cfg) {
		t.Fatal("reloaded plan does not match the problem it was compiled for")
	}
	cache := NewPlanCache(4)
	cache.Put(&loaded)
	cfg.Plans = cache

	before := PlanBuildCount()
	w.Run(func(pe rt.PE) {
		Multiply(pe, c, a, b, cfg)
	})
	if got := PlanBuildCount() - before; got != 0 {
		t.Fatalf("seeded cache still ran %d slicing passes", got)
	}
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			got := c.Gather(pe, 0)
			if !got.AllClose(ref, 1e-3) {
				t.Errorf("restart-path multiply wrong: maxdiff %g", got.MaxAbsDiff(ref))
			}
		}
	})
}

// corruptCase mutates a valid plan so the deserializer must reject it.
type corruptCase struct {
	name string
	mut  func(cp *CompiledPlan)
}

// executorTrustCases are well-formed by every structural check yet break
// what the executor assumes of a plan without re-checking: ops inside the
// tiles they name (or tile.ViewInto panics inside a PE), locality flags
// that agree with the owner ranks, and fetch and chain flags that agree
// with the walk rerun at Key.CacheTiles.
var executorTrustCases = []corruptCase{
	{"op outside its tiles", func(cp *CompiledPlan) { cp.Plans[0].Steps[0].Op.M.End += 100 }},
	{"locality contradicts owner", func(cp *CompiledPlan) {
		s := &cp.Plans[0].Steps[0]
		s.ALocal = !s.ALocal
	}},
	{"fetch flag contradicts LRU replay", func(cp *CompiledPlan) {
		s := &cp.Plans[0].Steps[0]
		s.FetchB = !s.FetchB
	}},
	{"chain flag contradicts the walk", func(cp *CompiledPlan) {
		s := &cp.Plans[0].Steps[0]
		s.Chained = !s.Chained
	}},
}

// chainableProblem is a 2-PE Stationary-C problem whose K dimension is
// split in two on both operands while each C tile spans all of N: every
// rank's plan is one two-step chain.
func chainableProblem() Problem {
	return buildDraw(planDraw{
		p: 2, m: 8, n: 6, k: 10,
		partA: distmat.ColBlock{}, partB: distmat.RowBlock{}, partC: distmat.RowBlock{},
		cA: 1, cB: 1, cC: 1,
	})
}

// chainFlagBlobs serializes chainableProblem's plan three ways: as
// compiled, with its first Chained flag flipped, and with every Chained
// flag stripped — what a file written before plans had chains looks like.
func chainFlagBlobs(t testing.TB) (good, flipped, stripped []byte) {
	cp := CompilePlans(chainableProblem(), Config{Stationary: StationaryC})
	good, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	const flag = `,"Chained":true`
	if n := bytes.Count(good, []byte(flag)); n != len(cp.Plans) {
		t.Fatalf("%d Chained flags in %s, want one per rank", n, good)
	}
	flipped = bytes.Replace(good, []byte(flag), []byte(`,"Chained":false`), 1)
	stripped = bytes.ReplaceAll(good, []byte(flag), nil)
	return good, flipped, stripped
}

// A plan with chains round-trips with its flags; the same bytes with one
// flag flipped, or with the flags a pre-chain writer would not have known
// to write, fail the loader's replay of the walk instead of reaching the
// executor with chains it did not plan.
func TestCompiledPlanChainFlagsChecked(t *testing.T) {
	good, flipped, stripped := chainFlagBlobs(t)
	var back CompiledPlan
	if err := json.Unmarshal(good, &back); err != nil {
		t.Fatalf("plan with chains rejected: %v", err)
	}
	for r, pl := range back.Plans {
		if len(pl.Steps) != 2 || !pl.Steps[0].Chained || pl.Steps[1].Chained {
			t.Errorf("rank %d came back as %+v, want one two-step chain", r, pl.Steps)
		}
	}
	for name, blob := range map[string][]byte{"flipped": flipped, "stripped": stripped} {
		var cp CompiledPlan
		if err := json.Unmarshal(blob, &cp); err == nil {
			t.Errorf("%s chain flags accepted", name)
		}
		if cp.Plans != nil {
			t.Errorf("%s chain flags: rejected load left a partly filled plan", name)
		}
	}
}

func TestCompiledPlanValidateRejects(t *testing.T) {
	prob := buildDraw(planDraw{
		p: 2, m: 12, n: 10, k: 8,
		partA: distmat.RowBlock{}, partB: distmat.ColBlock{}, partC: distmat.RowBlock{},
		cA: 1, cB: 1, cC: 1,
	})
	base := CompilePlans(prob, DefaultConfig())
	blob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}

	cases := []corruptCase{
		{"zero world", func(cp *CompiledPlan) { cp.Key.NumPE = 0 }},
		{"huge world", func(cp *CompiledPlan) { cp.Key.NumPE = 1 << 21 }},
		{"rank count mismatch", func(cp *CompiledPlan) { cp.Plans = cp.Plans[:1] }},
		{"unnormalized cache", func(cp *CompiledPlan) { cp.Key.CacheTiles = 0 }},
		{"unresolved stationary", func(cp *CompiledPlan) { cp.Key.Stationary = StationaryAuto }},
		{"bad replication", func(cp *CompiledPlan) { cp.Key.A.Replication = 5 }},
		{"zero tile shape", func(cp *CompiledPlan) { cp.Key.B.TileRows = 0 }},
		{"rank renumbered", func(cp *CompiledPlan) { cp.Plans[1].Rank = 0 }},
		{"plan stationary disagrees", func(cp *CompiledPlan) { cp.Plans[0].Stationary = (cp.Key.Stationary % 3) + 1 }},
		{"tile index out of grid", func(cp *CompiledPlan) { cp.Plans[0].Steps[0].Op.AIdx.Row = 99 }},
		{"negative tile index", func(cp *CompiledPlan) { cp.Plans[0].Steps[0].Op.CIdx.Col = -1 }},
		{"inverted interval", func(cp *CompiledPlan) {
			cp.Plans[0].Steps[0].Op.M.Begin = 5
			cp.Plans[0].Steps[0].Op.M.End = 2
		}},
		{"source rank out of world", func(cp *CompiledPlan) { cp.Plans[0].Steps[0].ASrc = 7 }},
		{"negative bytes", func(cp *CompiledPlan) { cp.Plans[0].Steps[0].BBytes = -4 }},
		{"fetch mode disagrees", func(cp *CompiledPlan) { cp.Plans[0].Steps[0].SubTile = !cp.Key.SubTile }},
	}
	cases = append(cases, executorTrustCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cp CompiledPlan
			if err := json.Unmarshal(blob, &cp); err != nil {
				t.Fatal(err)
			}
			tc.mut(&cp)
			bad, err := json.Marshal(&cp)
			if err != nil {
				t.Fatal(err)
			}
			var back CompiledPlan
			if err := json.Unmarshal(bad, &back); err == nil {
				t.Fatal("deserializer accepted corrupted plan")
			}
		})
	}
	// And the untouched blob must still load.
	var ok CompiledPlan
	if err := json.Unmarshal(blob, &ok); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// FuzzCompiledPlanJSON hammers the deserializer with arbitrary bytes: it
// must never panic, and anything it accepts must round-trip and satisfy the
// validator's invariants.
func FuzzCompiledPlanJSON(f *testing.F) {
	prob := buildDraw(planDraw{
		p: 2, m: 9, n: 7, k: 5,
		partA: distmat.RowBlock{}, partB: distmat.ColBlock{}, partC: distmat.RowBlock{},
		cA: 1, cB: 1, cC: 1,
	})
	for _, cfg := range []Config{{}, {SubTileFetch: true}, {Stationary: StationaryA, CacheTiles: 2}} {
		blob, err := json.Marshal(CompilePlans(prob, cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	reordered, err := json.Marshal(CompileOrdered(prob, Config{}, reversedOrder))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reordered)
	// A plan in the generated order where the order pass now groups: what a
	// file written before the pass holds.
	prePass, err := json.Marshal(prePassPlan(prePassFileProblem(modelworld.NewWorld(4))))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prePass)
	for _, tc := range executorTrustCases {
		cp := CompilePlans(prob, Config{})
		tc.mut(cp)
		blob, err := json.Marshal(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	chained, flipped, stripped := chainFlagBlobs(f)
	f.Add(chained)
	f.Add(flipped)
	f.Add(stripped)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"key":{"NumPE":-1}}`))
	f.Add([]byte(`{"key":{"NumPE":2,"Stationary":3,"CacheTiles":8},"plans":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp CompiledPlan
		if err := json.Unmarshal(data, &cp); err != nil {
			return
		}
		if err := cp.validate(); err != nil {
			t.Fatalf("accepted plan fails validate: %v", err)
		}
		again, err := json.Marshal(&cp)
		if err != nil {
			t.Fatalf("accepted plan fails to re-marshal: %v", err)
		}
		var back CompiledPlan
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("accepted plan fails round trip: %v", err)
		}
	})
}
