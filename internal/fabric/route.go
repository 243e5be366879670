package fabric

import "fmt"

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
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-15+1e-12*m
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

// routeScratch holds one Freeze's Dijkstra working state, reused across
// the per-source passes so a cluster-scale freeze (thousands of sources ×
// thousands of nodes) does not churn the garbage collector.
type routeScratch struct {
	dist    []float64
	done    []bool
	reached []bool
	// preds[v] lists the incoming link of every shortest path to v.
	preds [][]int
	heap  routeHeap
	// rev holds one source's routes back to back, each reversed (dst
	// first); ends[dst] is where dst's route ends in it.
	rev  []int
	ends []int
}

func newRouteScratch(nodes int) *routeScratch {
	return &routeScratch{
		dist:    make([]float64, nodes),
		done:    make([]bool, nodes),
		reached: make([]bool, nodes),
		preds:   make([][]int, nodes),
		heap:    make(routeHeap, 0, nodes),
	}
}

func (s *routeScratch) reset() {
	for i := range s.done {
		s.done[i] = false
		s.reached[i] = false
		s.preds[i] = s.preds[i][:0]
	}
	s.heap = s.heap[:0]
}

// routeFrom fills f.routes[src*P+dst] for all dst with a Dijkstra pass
// from src's node, using a binary heap so cluster-scale fabrics
// (thousands of nodes, one pass per PE) stay O(E log V) per source
// rather than O(V²).
func (f *Fabric) routeFrom(src int, s *routeScratch) {
	p := len(f.peNodes)
	start := f.peNodes[src]

	s.reset()
	dist, done, reached, preds := s.dist, s.done, s.reached, s.preds
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
		// Only the source PE and forwarding nodes relay traffic onward.
		if u != start && f.nodes[u].Kind == KindPE {
			continue
		}
		for _, li := range f.outLinks[f.outStart[u]:f.outStart[u+1]] {
			l := &f.links[li]
			if done[l.To] {
				// A finalized node's distance cannot improve; appending an
				// equal-cost predecessor here could only be a zero-latency
				// tie, which risks a predecessor cycle — skip it.
				continue
			}
			d := dist[u] + l.Lat
			switch {
			case !reached[l.To] || d < dist[l.To] && !routeEq(d, dist[l.To]):
				reached[l.To] = true
				dist[l.To] = d
				preds[l.To] = append(preds[l.To][:0], li)
				heap.push(heapEntry{d, l.To})
			case routeEq(d, dist[l.To]):
				preds[l.To] = append(preds[l.To], li)
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
				panic(fmt.Sprintf("fabric %s: PE %d cannot reach PE %d", f.name, src, dst))
			}
			flow := fnvInt(fnvInt(fnvOffset, src), dst)
			for v := end; v != start; {
				cands := preds[v]
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
