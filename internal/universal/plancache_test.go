package universal

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"slicing/internal/distmat"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
)

// cacheProb builds a small problem whose key varies with m, giving tests a
// cheap supply of distinct plan keys over one world size.
func cacheProb(m int) Problem {
	w := shmem.NewWorld(2)
	a := distmat.New(w, m, 8, distmat.RowBlock{}, 1)
	b := distmat.New(w, 8, 6, distmat.ColBlock{}, 1)
	c := distmat.New(w, m, 6, distmat.RowBlock{}, 1)
	return NewProblem(c, a, b)
}

func TestPlanCacheHitMissEviction(t *testing.T) {
	cache := NewPlanCache(2)
	cfg := DefaultConfig()
	probs := []Problem{cacheProb(4), cacheProb(8), cacheProb(12)}
	keys := make([]PlanKey, len(probs))
	for i, p := range probs {
		keys[i] = PlanKeyOf(p, cfg)
		cache.Put(CompilePlans(p, cfg)) // fills, then evicts keys[0]
	}
	st := cache.Stats()
	if st.Len != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 puts into capacity 2: len %d evictions %d", st.Len, st.Evictions)
	}
	if _, ok := cache.Get(keys[0]); ok {
		t.Fatal("LRU victim still cached")
	}
	if _, ok := cache.Get(keys[1]); !ok {
		t.Fatal("recent entry missing")
	}
	if _, ok := cache.Get(keys[2]); !ok {
		t.Fatal("most recent entry missing")
	}
	st = cache.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("counters: hits %d misses %d", st.Hits, st.Misses)
	}
	if pct := st.HitPct(); pct < 66 || pct > 67 {
		t.Fatalf("hit pct %g", pct)
	}

	// Touching keys[1] makes keys[2] the LRU victim of the next insert.
	cache.Get(keys[1])
	cache.Put(CompilePlans(probs[0], cfg))
	if _, ok := cache.Get(keys[2]); ok {
		t.Fatal("LRU order ignored recency: untouched entry survived")
	}
	if _, ok := cache.Get(keys[1]); !ok {
		t.Fatal("recently touched entry evicted")
	}
}

func TestPlanCacheCapacityOne(t *testing.T) {
	cache := NewPlanCache(1)
	cfg := DefaultConfig()
	p1, p2 := cacheProb(4), cacheProb(8)
	cp1 := cache.GetOrCompile(p1, cfg)
	if got := cache.GetOrCompile(p1, cfg); got != cp1 {
		t.Fatal("capacity-1 cache did not serve the hit")
	}
	cache.GetOrCompile(p2, cfg)
	if cache.Len() != 1 {
		t.Fatalf("capacity-1 cache holds %d entries", cache.Len())
	}
	if _, ok := cache.Get(PlanKeyOf(p1, cfg)); ok {
		t.Fatal("capacity-1 cache kept the evicted entry")
	}
	// Re-inserting the same key must refresh, not duplicate.
	cp2 := CompilePlans(p2, cfg)
	cache.Put(cp2)
	if cache.Len() != 1 {
		t.Fatalf("refresh grew the cache to %d", cache.Len())
	}
	if got, _ := cache.Get(cp2.Key); got != cp2 {
		t.Fatal("refresh did not replace the stored plan")
	}
}

func TestPlanCacheCapacityZero(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			cache := NewPlanCache(capacity)
			cfg := DefaultConfig()
			prob := cacheProb(4)
			cp := cache.GetOrCompile(prob, cfg)
			if cp == nil {
				t.Fatal("disabled cache must still compile")
			}
			if cache.Len() != 0 {
				t.Fatalf("disabled cache stored %d entries", cache.Len())
			}
			if _, ok := cache.Get(PlanKeyOf(prob, cfg)); ok {
				t.Fatal("disabled cache served a hit")
			}
			st := cache.Stats()
			if st.Hits != 0 || st.Evictions != 0 || st.Capacity != 0 {
				t.Fatalf("disabled cache stats %+v", st)
			}
		})
	}
}

// Concurrent lookups racing evictions must stay consistent: every lookup
// either hits an immutable plan with the right key or misses; the cache
// never exceeds capacity. Run under -race.
func TestPlanCacheConcurrentLookupWhileEvicting(t *testing.T) {
	const capacity, keysN, workers, iters = 3, 8, 8, 200
	cache := NewPlanCache(capacity)
	cfg := DefaultConfig()
	plans := make([]*CompiledPlan, keysN)
	for i := range plans {
		plans[i] = CompilePlans(cacheProb(4*(i+1)), cfg)
	}
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := (seed*31 + i*7) % keysN
				if i%3 == 0 {
					cache.Put(plans[j])
				} else if cp, ok := cache.Get(plans[j].Key); ok {
					if cp.Key != plans[j].Key {
						t.Errorf("lookup returned plan with wrong key")
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	if n := cache.Len(); n > capacity {
		t.Fatalf("cache holds %d entries over capacity %d", n, capacity)
	}
	st := cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// GetOrCompile must coalesce concurrent identical requests onto a single
// compilation — the P ranks of one collective Multiply race here.
func TestPlanCacheCoalescesConcurrentBuilds(t *testing.T) {
	cache := NewPlanCache(4)
	cfg := DefaultConfig()
	prob := cacheProb(16)
	const callers = 8
	results := make([]*CompiledPlan, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = cache.GetOrCompile(prob, cfg)
		}(i)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent identical requests ran %d compilations", callers, st.Builds)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("coalesced callers received different plan instances")
		}
	}
}

// The serving hot path's allocation budget: computing the canonical key and
// hitting the cache must allocate nothing.
func TestPlanCacheHitZeroAllocs(t *testing.T) {
	cache := NewPlanCache(4)
	cfg := DefaultConfig()
	prob := cacheProb(8)
	cache.Put(CompilePlans(prob, cfg))
	// A plain Multiply finds its world's cache first, whatever the world's
	// dynamic type. (The value world is boxed once, here: boxing allocates.)
	w := prob.C.World()
	var vw rt.World = valueWorld{w}
	PlansOf(w)
	PlansOf(vw)
	allocs := testing.AllocsPerRun(100, func() {
		PlansOf(w)
		PlansOf(vw)
		key := PlanKeyOf(prob, cfg)
		if _, ok := cache.Get(key); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects per lookup", allocs)
	}
}

// A cached Multiply must re-run zero slicing passes: the §4.1 pass count is
// unchanged across the hit-path call.
func TestCachedMultiplyRunsZeroSlicingWork(t *testing.T) {
	const p, m, n, k = 4, 23, 29, 31
	w := shmem.NewWorld(p)
	a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
	b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
	c := distmat.New(w, m, n, distmat.Block2D{}, 1)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 101)
		b.FillRandom(pe, 202)
	})
	cfg := DefaultConfig()
	cfg.Plans = NewPlanCache(4)

	// Cold call: exactly one compilation of p rank plans, coalesced across
	// the world's PEs.
	before := PlanBuildCount()
	w.Run(func(pe rt.PE) {
		Multiply(pe, c, a, b, cfg)
	})
	if got := PlanBuildCount() - before; got != int64(p) {
		t.Fatalf("cold cached multiply ran %d slicing passes, want %d (one per rank)", got, p)
	}

	// Warm calls: zero slicing passes, pure plan re-execution.
	before = PlanBuildCount()
	for i := 0; i < 3; i++ {
		w.Run(func(pe rt.PE) {
			Multiply(pe, c, a, b, cfg)
		})
	}
	if got := PlanBuildCount() - before; got != 0 {
		t.Fatalf("warm cached multiply ran %d slicing passes, want 0", got)
	}
	st := cfg.Plans.Stats()
	if st.Builds != 1 {
		t.Fatalf("world-wide compilations: %d, want 1", st.Builds)
	}

	// A nil Plans is the world's own cache, cold here: the first plain call
	// compiles once for the world, the contrast that makes the counter
	// meaningful, and every later one compiles nothing.
	plain := cfg
	plain.Plans = nil
	for call, want := range []int64{p, 0, 0} {
		before = PlanBuildCount()
		w.Run(func(pe rt.PE) {
			Multiply(pe, c, a, b, plain)
		})
		if got := PlanBuildCount() - before; got != want {
			t.Fatalf("plain call %d ran %d slicing passes, want %d", call, got, want)
		}
	}
	if st := PlansOf(w).Stats(); st.Builds != 1 || st.Len != 1 {
		t.Fatalf("world cache after plain multiplies: %d builds, %d plans; want 1 and 1", st.Builds, st.Len)
	}
}

// Cached and uncached execution must agree numerically.
func TestCachedMultiplyMatchesUncached(t *testing.T) {
	const p, m, n, k = 4, 25, 22, 27
	for _, sub := range []bool{false, true} {
		t.Run(fmt.Sprintf("subtile=%v", sub), func(t *testing.T) {
			w := shmem.NewWorld(p)
			a := distmat.New(w, m, k, distmat.RowBlock{}, 1)
			b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
			c := distmat.New(w, m, n, distmat.Block2D{}, 2)
			w.Run(func(pe rt.PE) {
				a.FillRandom(pe, 31)
				b.FillRandom(pe, 32)
			})
			ref := referenceProduct(m, n, k, 31, 32, a, b, w)
			cfg := DefaultConfig()
			cfg.SubTileFetch = sub
			cfg.SyncReplicas = true
			cfg.Plans = NewPlanCache(4)
			for pass := 0; pass < 2; pass++ { // miss then hit
				w.Run(func(pe rt.PE) {
					Multiply(pe, c, a, b, cfg)
				})
				w.Run(func(pe rt.PE) {
					if pe.Rank() == 0 {
						got := c.Gather(pe, 0)
						if !got.AllClose(ref, 1e-3) {
							t.Errorf("pass %d: maxdiff %g", pass, got.MaxAbsDiff(ref))
						}
					}
				})
			}
		})
	}
}

// PlansOf must hand every consumer of one world the same cache, and
// different worlds different caches.
func TestPlansOfPerWorldIdentity(t *testing.T) {
	w1, w2 := shmem.NewWorld(2), shmem.NewWorld(2)
	if PlansOf(w1) != PlansOf(w1) {
		t.Fatal("same world produced different caches")
	}
	if PlansOf(w1) == PlansOf(w2) {
		t.Fatal("different worlds share a cache")
	}
	if got := PlansOf(w1).Stats().Capacity; got != DefaultPlanCacheSize {
		t.Fatalf("implicit cache capacity %d", got)
	}
	// A world that is a struct value, not a pointer, is keyed by identity.
	if v := (valueWorld{w1}); PlansOf(v) != PlansOf(v) || PlansOf(v) == PlansOf(w1) {
		t.Fatal("a value world needs its own stable cache")
	}
}

// valueWorld is a world whose dynamic value is a struct, not a pointer.
// (The alias keeps the embedded field from being named World, which would
// hide the World method.)
type valueWorld struct{ anyWorld }

type anyWorld = rt.World

// The per-world registry must not keep a world alive: a world that a plain
// Multiply registered is collected once the caller drops it, and its entry
// goes with it, while a world still in use keeps its cache across
// collections.
func TestPlansOfDoesNotPinWorlds(t *testing.T) {
	kept := shmem.NewWorld(2)
	keptPlans := PlansOf(kept)
	var addr uintptr
	gone := func() weak.Pointer[shmem.World] {
		w := shmem.NewWorld(2)
		a := distmat.New(w, 8, 8, distmat.RowBlock{}, 1)
		b := distmat.New(w, 8, 8, distmat.ColBlock{}, 1)
		c := distmat.New(w, 8, 8, distmat.Block2D{}, 1)
		w.Run(func(pe rt.PE) { Multiply(pe, c, a, b, DefaultConfig()) })
		if PlansOf(w).Stats().Builds != 1 {
			t.Fatal("a plain multiply did not compile through the world's cache")
		}
		addr = uintptr(unsafe.Pointer(w))
		return weak.Make(w)
	}()
	registered := func() bool {
		worldPlans.Lock()
		defer worldPlans.Unlock()
		_, ok := worldPlans.byAddr[addr]
		return ok
	}
	for deadline := time.Now().Add(10 * time.Second); gone.Value() != nil || registered(); {
		if time.Now().After(deadline) {
			t.Fatalf("dropped world: collected %v, registry entry still present %v", gone.Value() == nil, registered())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if PlansOf(kept) != keptPlans {
		t.Fatal("a live world's cache changed across collections")
	}
}
