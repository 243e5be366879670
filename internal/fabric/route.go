package fabric

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Routing: latency-weighted shortest paths from every source PE, computed
// once at Freeze. Transit is restricted to forwarding nodes (switches and
// NICs) — a route never passes through another PE, matching hardware
// where GPUs do not forward fabric traffic. When several shortest paths
// tie within floating-point tolerance, the choice at each junction is a
// deterministic hash of (src, dst, junction) — static ECMP: the same flow
// always takes the same path (so modeled runs are reproducible), while
// different pairs spread across the parallel planes of a fat-tree.

// routeEq is the tolerance for "equal cost" when collecting ECMP
// candidates: sums of the same latencies in different orders may differ in
// the last few ulps.
func routeEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-15+1e-12*max(a, b)
}

// heapEntry is a pending Dijkstra visit: a node and the distance it was
// enqueued at. Entries are ordered by (dist, node) — the node index breaks
// exact ties, reproducing the finalization order of the O(V²) linear scan
// this heap replaced, so routes (and the ECMP predecessor lists they hash
// over) are unchanged.
type heapEntry struct {
	dist float64
	node int
}

func heapLess(a, b heapEntry) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

// routeHeap is a lazy-deletion binary min-heap: decrease-key pushes a
// duplicate and pop discards entries for already-finalized nodes.
type routeHeap []heapEntry

func (h *routeHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !heapLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *routeHeap) pop() heapEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && heapLess(s[l], s[min]) {
			min = l
		}
		if r < len(s) && heapLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

// routeScratch holds one worker's Dijkstra working state for one Freeze,
// reused across the per-source passes the worker runs so a cluster-scale
// freeze (thousands of sources × thousands of nodes) does not churn the
// garbage collector.
type routeScratch struct {
	dist    []float64
	done    []bool // expanded: the source and forwarding nodes
	reached []bool
	// Node v's equal-cost in-links are preds[inStart[v]:inStart[v]+npred[v]]:
	// v's window of the in-link CSR, which is as long as v's in-degree,
	// since each in-link is relaxed at most once per pass.
	inStart []int // shared, read-only
	preds   []int
	npred   []int32
	// PEs other than the source never enter the heap (see finalized);
	// setAt[v] is the index in pops of the expansion that last set PE v's
	// distance.
	setAt []int32
	pops  []int // expanded nodes in expansion order
	heap  routeHeap
	// rev holds one source's routes back to back, each reversed (dst
	// first); ends[dst] is where dst's route ends in it.
	rev  []int
	ends []int
}

func newRouteScratch(nodes int, inStart []int) *routeScratch {
	return &routeScratch{
		dist:    make([]float64, nodes),
		done:    make([]bool, nodes),
		reached: make([]bool, nodes),
		inStart: inStart,
		preds:   make([]int, inStart[nodes]),
		npred:   make([]int32, nodes),
		setAt:   make([]int32, nodes),
		heap:    make(routeHeap, 0, nodes),
	}
}

// reset clears the per-pass state. preds, npred and setAt are written on
// a node's first reach, so they need no clearing.
func (s *routeScratch) reset() {
	for i := range s.done {
		s.done[i] = false
		s.reached[i] = false
	}
	s.heap = s.heap[:0]
	s.pops = s.pops[:0]
}

// finalized reports whether PE v, already reached, would have left a heap
// holding every node by the time the current node u (the last of pops) is
// expanded. Such a heap pops in (dist, node) order, except that a
// zero-latency link can push a node whose key is below the one being
// expanded; so v, pushed during expansion setAt[v], is finalized exactly
// when some later expansion up to u has a larger key than v's. A PE
// relays nothing, so keeping it off the heap changes no other node's
// expansion, and the answer decides, as the heap would have, whether an
// equal-cost in-link of v is still kept.
func (s *routeScratch) finalized(v, u int) bool {
	cur := int32(len(s.pops) - 1)
	if s.setAt[v] == cur {
		return false
	}
	dv, du := s.dist[v], s.dist[u]
	if dv != du {
		return dv < du
	}
	if v < u {
		return true
	}
	// Only a zero-latency chain reaches here: u was pushed after v at v's
	// distance, below v's key.
	for _, x := range s.pops[s.setAt[v]+1 : cur] {
		if s.dist[x] == dv && x > v {
			return true
		}
	}
	return false
}

// routeFrom fills f.routes[src*P+dst] for all dst with a Dijkstra pass
// from src's node, using a binary heap of forwarding nodes so
// cluster-scale fabrics (thousands of nodes, one pass per PE) stay
// O(E log V) per source rather than O(V²). It returns the first PE src
// cannot reach, or -1.
func (f *Fabric) routeFrom(src int, s *routeScratch) int {
	p := len(f.peNodes)
	start := f.peNodes[src]

	s.reset()
	dist, done, reached, preds, npred := s.dist, s.done, s.reached, s.preds, s.npred
	dist[start] = 0
	reached[start] = true

	heap := s.heap
	heap.push(heapEntry{0, start})
	for len(heap) > 0 {
		u := heap.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		s.pops = append(s.pops, u)
		for _, li := range f.outLinks[f.outStart[u]:f.outStart[u+1]] {
			l := &f.links[li]
			v := l.To
			if done[v] {
				// A finalized node's distance cannot improve; appending an
				// equal-cost predecessor here could only be a zero-latency
				// tie, which risks a predecessor cycle — skip it.
				continue
			}
			d := dist[u] + l.Lat
			first := !reached[v] || d < dist[v] && !routeEq(d, dist[v])
			if !first && !routeEq(d, dist[v]) {
				continue
			}
			// Only the source PE and forwarding nodes relay traffic onward,
			// so other PEs are leaves: never pushed, finalized by key.
			leaf := f.nodes[v].Kind == KindPE
			if leaf && reached[v] && s.finalized(v, u) {
				continue
			}
			at := s.inStart[v]
			if !first {
				preds[at+int(npred[v])] = li
				npred[v]++
				continue
			}
			reached[v] = true
			dist[v] = d
			preds[at] = li
			npred[v] = 1
			if leaf {
				s.setAt[v] = int32(len(s.pops) - 1)
			} else {
				heap.push(heapEntry{d, v})
			}
		}
	}
	s.heap = heap

	// Walk predecessors back from every dst into rev, breaking ECMP ties
	// by hash. Only a junction with several equal-cost predecessors
	// hashes: with one candidate every hash picks it.
	rev, ends := s.rev[:0], s.ends[:0]
	for dst := 0; dst < p; dst++ {
		if dst != src {
			end := f.peNodes[dst]
			if !reached[end] {
				return dst
			}
			flow := fnvInt(fnvInt(fnvOffset, src), dst)
			for v := end; v != start; {
				cands := preds[s.inStart[v] : s.inStart[v]+int(npred[v])]
				li := cands[0]
				if len(cands) > 1 {
					li = cands[int(fnvInt(flow, v)%uint32(len(cands)))]
				}
				rev = append(rev, li)
				v = f.links[li].From
			}
		}
		ends = append(ends, len(rev))
	}
	s.rev, s.ends = rev, ends

	// Copy the routes forward into one array for the source; each pair's
	// route is a window of it whose capacity ends at its length.
	all := make([]int, len(rev))
	lo := 0
	for dst, hi := range ends {
		if dst == src {
			f.routes[src*p+dst] = nil
			continue
		}
		route := all[lo:hi:hi]
		lat := 0.0
		for i, li := range rev[lo:hi] {
			route[len(route)-1-i] = li
			lat += f.links[li].Lat
		}
		f.routes[src*p+dst] = route
		// Latencies are immutable after Freeze (only bandwidth degrades),
		// so the per-pair sum is computed once here instead of on every
		// Latency query — the cost model asks millions of times per
		// cluster-scale autotune pass.
		f.routeLat[src*p+dst] = lat
		lo = hi
	}
	return -1
}

// routeAll runs routeFrom for every source, fanned out over
// min(GOMAXPROCS, P) workers that each own one routeScratch and claim
// sources from a shared counter; one worker runs inline. Sources write
// disjoint route slots, so the result does not depend on the split. It
// panics naming the lowest source with an unreachable PE.
func (f *Fabric) routeAll(inStart []int) {
	p := len(f.peNodes)
	unreached := make([]int, p) // per source: routeFrom's result
	var next atomic.Int64
	work := func() {
		s := newRouteScratch(len(f.nodes), inStart)
		for src := int(next.Add(1)) - 1; src < p; src = int(next.Add(1)) - 1 {
			unreached[src] = f.routeFrom(src, s)
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), p); workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for src, dst := range unreached {
		if dst >= 0 {
			panic(fmt.Sprintf("fabric %s: PE %d cannot reach PE %d", f.name, src, dst))
		}
	}
}

// fnvOffset and fnvInt are 32-bit FNV-1a over little-endian 4-byte ints.
// A route's ECMP hash is FNV-1a over (src, dst, junction), the static
// per-flow spreading of hash-based ECMP; the (src, dst) prefix is hashed
// once per pair and continued over each junction that has a tie.
const fnvOffset = uint32(2166136261)

func fnvInt(h uint32, v int) uint32 {
	for i := 0; i < 4; i++ {
		h ^= uint32(v>>(8*i)) & 0xff
		h *= 16777619
	}
	return h
}
