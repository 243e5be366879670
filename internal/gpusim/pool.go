package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a size-bucketed float32 buffer pool modelling the GPU memory pool
// of §4.2: the paper performs one large device allocation up front and then
// sub-allocates from the host to avoid device-wide synchronization on every
// cudaMalloc/zeMemAlloc. Here the pool additionally removes Go allocator /
// GC churn from the real-execution hot path and tracks a high-water mark so
// tests can assert on memory behaviour.
//
// Every step of every PE's chain gets and puts here, so nothing in it is
// pool-wide: buckets are an array indexed by size class, each with its own
// lock, and the counters are atomics. The zero Pool is ready to use.
type Pool struct {
	buckets   [len(bucketSizes)]poolBucket
	live      atomic.Int64 // elements currently handed out
	highWater atomic.Int64 // max live elements ever
	allocs    atomic.Int64 // fresh allocations (pool misses)
	hits      atomic.Int64 // reuses (pool hits)
}

// poolBucket is the free stack of one size class, padded to a cache line
// so neighbouring classes' locks do not share one.
type poolBucket struct {
	mu    sync.Mutex
	stack [][]float32
	_     [32]byte
}

// NewPool returns an empty pool.
func NewPool() *Pool { return new(Pool) }

// bucketSizes are the size classes, ascending: powers of two from 64 to
// 4096, then 1.5x steps (to limit fragmentation on large tiles) up to
// ~2^45 elements — past anything that can be allocated.
var bucketSizes = func() (t [64]int) {
	size := 64
	for i := range t {
		t[i] = size
		if size < 4096 {
			size *= 2
		} else {
			size += size / 2
		}
	}
	return t
}()

// bucketFor returns the index of the smallest size class holding n
// elements, or len(bucketSizes) when there is none.
func bucketFor(n int) int {
	for i, size := range bucketSizes {
		if size >= n {
			return i
		}
	}
	return len(bucketSizes)
}

// Get returns a zeroed buffer of at least n elements (len == n).
func (p *Pool) Get(n int) []float32 {
	buf, recycled := p.get(n)
	if recycled {
		for i := range buf {
			buf[i] = 0
		}
	}
	return buf
}

// GetUninit returns a buffer of at least n elements (len == n) without
// zeroing recycled contents. Use it for destinations that are fully
// overwritten before being read — tile-fetch targets in the execution hot
// path — where Get's clearing pass would be pure overhead.
func (p *Pool) GetUninit(n int) []float32 {
	buf, _ := p.get(n)
	return buf
}

// get pops a bucketed buffer, reporting whether it was recycled (and may
// therefore hold stale contents); fresh make() allocations are already
// zero.
func (p *Pool) get(n int) (buf []float32, recycled bool) {
	if n <= 0 {
		return nil, false
	}
	i := bucketFor(n)
	size := bucketSizes[i]
	b := &p.buckets[i]
	b.mu.Lock()
	if top := len(b.stack) - 1; top >= 0 {
		buf, b.stack[top] = b.stack[top], nil
		b.stack = b.stack[:top]
		recycled = true
	}
	b.mu.Unlock()
	if recycled {
		p.hits.Add(1)
	} else {
		p.allocs.Add(1)
		buf = make([]float32, size)
	}
	live := p.live.Add(int64(size))
	for {
		hw := p.highWater.Load()
		if live <= hw || p.highWater.CompareAndSwap(hw, live) {
			break
		}
	}
	return buf[:n], recycled
}

// Put returns a buffer obtained from Get to the pool. Passing a foreign
// slice is allowed as long as its capacity matches a bucket size; otherwise
// it is dropped.
func (p *Pool) Put(buf []float32) {
	if buf == nil {
		return
	}
	size := cap(buf)
	i := bucketFor(size)
	if i == len(bucketSizes) || bucketSizes[i] != size {
		return // not one of ours; let the GC have it
	}
	b := &p.buckets[i]
	b.mu.Lock()
	b.stack = append(b.stack, buf[:size])
	b.mu.Unlock()
	p.live.Add(-int64(size))
}

// Stats reports pool behaviour.
type PoolStats struct {
	Live      int
	HighWater int
	Allocs    int64
	Hits      int64
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Live: int(p.live.Load()), HighWater: int(p.highWater.Load()),
		Allocs: p.allocs.Load(), Hits: p.hits.Load()}
}

func (s PoolStats) String() string {
	return fmt.Sprintf("pool{live %d, highwater %d, allocs %d, hits %d}", s.Live, s.HighWater, s.Allocs, s.Hits)
}

// BucketSizes returns the distinct bucket sizes currently cached, sorted.
// Exposed for tests.
func (p *Pool) BucketSizes() []int {
	var out []int
	for i := range p.buckets {
		b := &p.buckets[i]
		b.mu.Lock()
		if len(b.stack) > 0 {
			out = append(out, bucketSizes[i])
		}
		b.mu.Unlock()
	}
	return out
}
