package universal

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

	rt "slicing/internal/runtime"
)

// DefaultPlanCacheSize is the per-world compiled-plan LRU capacity used
// when a cache is created implicitly (PlansOf).
const DefaultPlanCacheSize = 32

// PlanCache is an LRU cache of CompiledPlans keyed by canonical PlanKey.
// It is safe for concurrent use by every PE of a world: a collective
// Multiply's P ranks race to GetOrCompile the same key, and the cache
// coalesces them onto one compilation (the remaining ranks block until the
// leader finishes, then share the immutable result). A cache hit allocates
// nothing — the key is a comparable struct, the LRU links are intrusive,
// and the counters are atomics — which is what keeps the serving hot path's
// allocation budget identical to executing a prebuilt plan.
//
// A capacity of zero (or negative) disables storage entirely: every lookup
// misses and compiled plans are dropped after use, but concurrent identical
// requests still coalesce onto one compilation in flight.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[PlanKey]*planEntry
	// Intrusive LRU list: head is most recently used.
	head, tail *planEntry
	inflight   map[PlanKey]*planFlight

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	builds    atomic.Int64
	coalesced atomic.Int64
}

type planEntry struct {
	key        PlanKey
	cp         *CompiledPlan
	prev, next *planEntry
}

type planFlight struct {
	done chan struct{}
	cp   *CompiledPlan
}

// NewPlanCache returns an empty cache holding at most capacity compiled
// plans; capacity <= 0 disables storage (see type docs).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 0 {
		capacity = 0
	}
	return &PlanCache{
		capacity: capacity,
		entries:  make(map[PlanKey]*planEntry),
		inflight: make(map[PlanKey]*planFlight),
	}
}

// Len returns the number of plans currently cached.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// unlink removes e from the LRU list. Caller holds mu.
func (c *PlanCache) unlink(e *planEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry. Caller holds mu.
func (c *PlanCache) pushFront(e *planEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the cached plan for key, marking it most recently used.
// Allocation-free on both hit and miss.
func (c *PlanCache) Get(key PlanKey) (*CompiledPlan, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	cp := e.cp
	c.mu.Unlock()
	c.hits.Add(1)
	return cp, true
}

// Put inserts (or refreshes) a compiled plan under its own key, evicting
// the least recently used entry when over capacity. Use it to seed a cache
// with a deserialized plan from a previous process.
func (c *PlanCache) Put(cp *CompiledPlan) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[cp.Key]; ok {
		e.cp = cp
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		c.mu.Unlock()
		return
	}
	e := &planEntry{key: cp.Key, cp: cp}
	c.entries[cp.Key] = e
	c.pushFront(e)
	for len(c.entries) > c.capacity {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// GetOrCompile returns the compiled plan for (problem, config), compiling
// and caching it on a miss. Concurrent callers with the same key — the P
// ranks of one collective Multiply, or many serving requests with the same
// shapes — coalesce onto a single compilation. The hit path allocates
// nothing.
func (c *PlanCache) GetOrCompile(prob Problem, cfg Config) *CompiledPlan {
	key := PlanKeyOf(prob, cfg)
	if cp, ok := c.Get(key); ok {
		return cp
	}
	c.mu.Lock()
	// Re-check under the lock: another caller may have completed the build
	// between our miss and acquiring the lock.
	if e, ok := c.entries[key]; ok {
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		cp := e.cp
		c.mu.Unlock()
		c.hits.Add(1)
		return cp
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.cp
	}
	fl := &planFlight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.cp = CompilePlans(prob, cfg)
	c.builds.Add(1)
	c.Put(fl.cp)
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
	return fl.cp
}

// PlanCacheStats is a snapshot of cache behaviour. HitPct is the hit rate
// over all Get lookups (coalesced waiters count as neither hit nor miss of
// the storage layer; they are reported separately).
type PlanCacheStats struct {
	Hits, Misses, Evictions int64
	// Builds counts actual slicing-pass compilations; Coalesced counts
	// callers that waited on another caller's in-flight build instead of
	// compiling themselves.
	Builds, Coalesced int64
	Len, Capacity     int
}

// HitPct returns the hit percentage over all lookups, 0 when none occurred.
func (s PlanCacheStats) HitPct() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Builds:    c.builds.Load(),
		Coalesced: c.coalesced.Load(),
		Len:       c.Len(),
		Capacity:  c.capacity,
	}
}

// worldPlans holds each world's shared plan cache without keeping the world
// alive, so a process that makes many worlds — a test binary, a sweep — does
// not keep every one of them until exit. A world held by a heap pointer
// (every backend's) is found by address and confirmed by a weak pointer, so
// a later world at a reused address never inherits the entry, and a cleanup
// drops the entry once the world is collected. Any other world — a struct
// value, or a pointer the collector does not manage — is keyed by interface
// identity and kept. A cache holds plans, never a world or its memory.
var worldPlans = struct {
	sync.Mutex
	byAddr  map[uintptr]worldPlan
	byValue map[rt.World]*PlanCache
}{byAddr: map[uintptr]worldPlan{}, byValue: map[rt.World]*PlanCache{}}

type worldPlan struct {
	world weak.Pointer[byte]
	plans *PlanCache
}

// PlansOf returns the plan cache attached to a world, creating it with
// DefaultPlanCacheSize on first use. It is the cache Multiply uses when
// Config.Plans is nil, and how long-lived consumers (the serving loop,
// repeated benchmark harnesses) share compiled plans without threading a
// cache through every call site. Allocation-free after the first call.
func PlansOf(w rt.World) *PlanCache {
	var p *byte // the world's heap identity, nil for a non-pointer world
	if v := reflect.ValueOf(w); v.Kind() == reflect.Pointer {
		p = (*byte)(v.UnsafePointer())
	}
	addr := uintptr(unsafe.Pointer(p))
	worldPlans.Lock()
	defer worldPlans.Unlock()
	if e, ok := worldPlans.byAddr[addr]; ok && p != nil && e.world.Value() == p {
		return e.plans
	}
	if c, ok := worldPlans.byValue[w]; ok {
		return c
	}
	c := NewPlanCache(DefaultPlanCacheSize)
	// AddCleanup returns the zero Cleanup, and does nothing, for memory the
	// collector does not manage; weak.Make would reject such a pointer.
	drop := func(c *PlanCache) { dropWorldPlans(addr, c) }
	if p != nil && runtime.AddCleanup(p, drop, c) != (runtime.Cleanup{}) {
		worldPlans.byAddr[addr] = worldPlan{world: weak.Make(p), plans: c}
	} else {
		worldPlans.byValue[w] = c
	}
	return c
}

// dropWorldPlans deletes the entry of the collected world that was at addr
// with cache c, unless a newer world at that address has replaced it.
func dropWorldPlans(addr uintptr, c *PlanCache) {
	worldPlans.Lock()
	if e, ok := worldPlans.byAddr[addr]; ok && e.plans == c {
		delete(worldPlans.byAddr, addr)
	}
	worldPlans.Unlock()
}
