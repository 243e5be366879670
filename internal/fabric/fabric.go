// Package fabric is the link-graph network model: a topology is nodes
// (PEs, switches, NICs) connected by directed links with individual
// bandwidth and latency, every src→dst transfer follows a statically
// routed path (latency-weighted shortest paths, equal-cost ties broken by
// a deterministic ECMP hash), and timed backends reserve the path's links
// as per-link FIFO queues — a transfer's start time is governed by the
// busiest link on its route, its duration by the bottleneck link's
// bandwidth.
//
// This refines package simnet's scalar model, whose single
// Bandwidth(src,dst) lookup plus per-PE port contention cannot express the
// regimes a production fabric congests in: incast into one node's NIC,
// oversubscribed leaf→spine uplinks, a degraded rail. Here those are just
// links shared by several routes. The scalar model survives as a
// degenerate fabric (Degenerate) with one pair link per ordered PE pair
// between per-PE port links, which reproduces the legacy numbers exactly
// and anchors the conformance suite.
//
// A Fabric is built once (AddPE/AddSwitch/AddNIC/Connect), frozen
// (Freeze computes all routes: one Dijkstra pass per source PE, the
// passes spread over up to GOMAXPROCS goroutines, with PEs kept off the
// heap because they relay nothing), and then shared read-only: the mutable
// queue occupancy lives in per-world Queues values. The simnet adapter is
// Topology(), which implements simnet.Topology (scalar consumers price
// the route's bottleneck bandwidth and total latency) and simnet.Routed
// (timed backends reserve the route's links).
package fabric

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeKind classifies a fabric node.
type NodeKind uint8

const (
	// KindPE is a processing element: a route endpoint. Routes never
	// transit a PE — only switches and NICs forward traffic.
	KindPE NodeKind = iota
	// KindSwitch is a forwarding element with an ideal backplane:
	// contention exists only on its links.
	KindSwitch
	// KindNIC is a network interface: also a forwarding element, named
	// separately so traces read like the machine room.
	KindNIC
)

// Node is one vertex of the fabric graph.
type Node struct {
	Kind NodeKind
	Name string
	// PE is the rank for KindPE nodes, -1 otherwise.
	PE int
	// Machine is the machine index hosting a PE node (-1 for non-PE
	// nodes). PEs on different machines reach each other only through the
	// inter-node fabric, and timed backends switch AccumulateAdd to the
	// §3 get+put path across this boundary.
	Machine int
}

// Link is one directed edge: traffic From→To at BW bytes/s after Lat
// seconds of propagation/startup latency. BW may be math.Inf(1) for
// ideal port links (the degenerate fabric uses them).
type Link struct {
	From, To int
	BW       float64
	Lat      float64
	Name     string
}

// Fabric is the immutable-after-Freeze link graph plus its routing table.
// The one mutable-after-Freeze quantity is effective link bandwidth: it
// lives in the bw array as atomic float64 bits so Degrade/DegradeAt can
// downtrain a link while timed worlds are pricing transfers through
// PathBandwidth concurrently (links[i].BW keeps the as-built value).
type Fabric struct {
	name     string
	localBW  float64 // bytes/s for src == dst device-local copies
	nodes    []Node
	links    []Link
	peNodes  []int           // rank -> node id
	outStart []int           // node u's outgoing links are outLinks[outStart[u]:outStart[u+1]]
	outLinks []int           // outgoing link indices grouped by node, in link order
	routes   [][]int         // [src*P+dst] -> link indices; non-nil once frozen
	routeLat []float64       // [src*P+dst] -> summed route latency, frozen with routes
	bw       []atomic.Uint64 // effective per-link bandwidth, math.Float64bits
}

// New starts an empty fabric. localBW is the device-local copy bandwidth
// returned for src == dst (fabric links are never involved in local
// copies).
func New(name string, localBW float64) *Fabric {
	if localBW <= 0 {
		panic(fmt.Sprintf("fabric: invalid local bandwidth %g", localBW))
	}
	return &Fabric{name: name, localBW: localBW}
}

// Name returns the fabric's name.
func (f *Fabric) Name() string { return f.name }

// AddPE adds a processing element on the given machine and returns its
// node id. Ranks are assigned in call order: the i-th AddPE is rank i.
func (f *Fabric) AddPE(name string, machine int) int {
	f.mustBeOpen()
	rank := len(f.peNodes)
	f.nodes = append(f.nodes, Node{Kind: KindPE, Name: name, PE: rank, Machine: machine})
	id := len(f.nodes) - 1
	f.peNodes = append(f.peNodes, id)
	return id
}

// AddSwitch adds a forwarding switch node.
func (f *Fabric) AddSwitch(name string) int {
	f.mustBeOpen()
	f.nodes = append(f.nodes, Node{Kind: KindSwitch, Name: name, PE: -1, Machine: -1})
	return len(f.nodes) - 1
}

// AddNIC adds a network-interface node (a forwarding element like a
// switch; the distinct kind keeps traces readable).
func (f *Fabric) AddNIC(name string) int {
	f.mustBeOpen()
	f.nodes = append(f.nodes, Node{Kind: KindNIC, Name: name, PE: -1, Machine: -1})
	return len(f.nodes) - 1
}

// Connect adds one directed link and returns its index.
func (f *Fabric) Connect(from, to int, bw, lat float64, name string) int {
	f.mustBeOpen()
	if from < 0 || from >= len(f.nodes) || to < 0 || to >= len(f.nodes) || from == to {
		panic(fmt.Sprintf("fabric: bad link %s: %d -> %d", name, from, to))
	}
	if bw <= 0 || lat < 0 || math.IsNaN(bw) || math.IsNaN(lat) {
		panic(fmt.Sprintf("fabric: link %s has invalid bw %g / lat %g", name, bw, lat))
	}
	f.links = append(f.links, Link{From: from, To: to, BW: bw, Lat: lat, Name: name})
	return len(f.links) - 1
}

// BiConnect adds a symmetric pair of links a→b and b→a (full-duplex wire).
func (f *Fabric) BiConnect(a, b int, bw, lat float64, name string) (ab, ba int) {
	ab = f.Connect(a, b, bw, lat, name+">")
	ba = f.Connect(b, a, bw, lat, name+"<")
	return
}

// Freeze computes the static route of every ordered PE pair and seals the
// graph. It panics if any PE pair is unreachable. Returns f for chaining.
func (f *Fabric) Freeze() *Fabric {
	f.mustBeOpen()
	p := len(f.peNodes)
	if p == 0 {
		panic("fabric: no PEs")
	}
	f.outStart = make([]int, len(f.nodes)+1)
	for li := range f.links {
		f.outStart[f.links[li].From+1]++
	}
	for u := range f.nodes {
		f.outStart[u+1] += f.outStart[u]
	}
	f.outLinks = make([]int, len(f.links))
	next := append([]int(nil), f.outStart[:len(f.nodes)]...)
	for li := range f.links {
		u := f.links[li].From
		f.outLinks[next[u]] = li
		next[u]++
	}
	// The in-link CSR's offsets: node v's in-degree bounds its equal-cost
	// predecessors, so each node gets that long a window of one flat array.
	inStart := make([]int, len(f.nodes)+1)
	for li := range f.links {
		inStart[f.links[li].To+1]++
	}
	for v := range f.nodes {
		inStart[v+1] += inStart[v]
	}
	f.routes = make([][]int, p*p)
	f.routeLat = make([]float64, p*p)
	f.routeAll(inStart)
	f.bw = make([]atomic.Uint64, len(f.links))
	for li := range f.links {
		f.bw[li].Store(math.Float64bits(f.links[li].BW))
	}
	return f
}

func (f *Fabric) frozen() bool { return f.routes != nil }

func (f *Fabric) mustBeOpen() {
	if f.frozen() {
		panic("fabric: frozen fabrics are immutable")
	}
}

func (f *Fabric) mustBeFrozen() {
	if !f.frozen() {
		panic("fabric: call Freeze before routing")
	}
}

// NumPE returns the number of processing elements.
func (f *Fabric) NumPE() int { return len(f.peNodes) }

// NumLinks returns the number of directed links.
func (f *Fabric) NumLinks() int { return len(f.links) }

// NumNodes returns the number of graph nodes.
func (f *Fabric) NumNodes() int { return len(f.nodes) }

// NodeAt returns one node's description.
func (f *Fabric) NodeAt(i int) Node { return f.nodes[i] }

// LinkAt returns one link's description.
func (f *Fabric) LinkAt(i int) Link { return f.links[i] }

// LinkID returns the index of the link with the given name; it panics if
// no link has it.
func (f *Fabric) LinkID(name string) int {
	for i, l := range f.links {
		if l.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("fabric: no link named %q", name))
}

// MachineOf returns the machine index hosting a PE.
func (f *Fabric) MachineOf(pe int) int { return f.nodes[f.peNodes[pe]].Machine }

// Route returns the static route from src to dst as link indices in
// traversal order (empty for src == dst). All routes from one source are
// windows of one shared array, so callers must not modify a route's
// elements; its capacity ends at its length, so appending to it copies
// instead of overwriting the next route.
func (f *Fabric) Route(src, dst int) []int {
	f.mustBeFrozen()
	p := len(f.peNodes)
	if src < 0 || src >= p || dst < 0 || dst >= p {
		panic(fmt.Sprintf("fabric: pe pair (%d,%d) out of %d-PE fabric", src, dst, p))
	}
	return f.routes[src*p+dst]
}

// PathBandwidth returns the bottleneck bandwidth of a route in bytes/s.
// An empty route (local copy) runs at the device-local bandwidth. It
// reads the effective (possibly degraded) bandwidths through their
// atomic storage, so it is safe to call concurrently with DegradeAt.
func (f *Fabric) PathBandwidth(route []int) float64 {
	if len(route) == 0 {
		return f.localBW
	}
	bw := f.LinkBandwidth(route[0])
	for _, li := range route[1:] {
		if b := f.LinkBandwidth(li); b < bw {
			bw = b
		}
	}
	return bw
}

// LinkBandwidth returns one link's current effective bandwidth in
// bytes/s: the as-built Link.BW times every degradation applied since.
// Safe to call concurrently with DegradeAt; requires a frozen fabric.
func (f *Fabric) LinkBandwidth(link int) float64 {
	return math.Float64frombits(f.bw[link].Load())
}

// RouteLatency returns the total latency of the static src→dst route,
// precomputed at Freeze (equal to PathLatency(Route(src, dst)) without the
// per-query walk).
func (f *Fabric) RouteLatency(src, dst int) float64 {
	f.mustBeFrozen()
	p := len(f.peNodes)
	if src < 0 || src >= p || dst < 0 || dst >= p {
		panic(fmt.Sprintf("fabric: pe pair (%d,%d) out of %d-PE fabric", src, dst, p))
	}
	return f.routeLat[src*p+dst]
}

// PathLatency returns the total latency of a route in seconds.
func (f *Fabric) PathLatency(route []int) float64 {
	lat := 0.0
	for _, li := range route {
		lat += f.links[li].Lat
	}
	return lat
}

// Degrade multiplies one link's bandwidth by factor in (0, 1], modeling a
// partial failure (a flapping rail, a downtrained NIC). Routes are static
// — latency-based — so degradation changes pricing and queueing, not
// paths, exactly like a bandwidth-downtrained link in a real fat-tree.
//
// Concurrency contract: link bandwidth is the one knob that stays
// adjustable after Freeze. Effective bandwidths live in atomic storage
// (PathBandwidth/LinkBandwidth load them atomically), so on a frozen
// fabric Degrade is safe even while timed worlds built over it are
// running — it is DegradeAt. Before Freeze it simply rewrites the
// as-built Link.BW, which Freeze then snapshots.
func (f *Fabric) Degrade(link int, factor float64) {
	if !f.frozen() {
		checkDegradeFactor(factor)
		f.links[link].BW *= factor
		return
	}
	f.DegradeAt(link, factor)
}

// DegradeAt multiplies one link's effective bandwidth by factor in
// (0, 1] on a frozen fabric, safely while worlds built over the fabric
// are mid-run: the update is an atomic read-modify-write on the
// bandwidth bits that pricing reads through the same atomics, so a
// chaos rule (or an operator) can downtrain a rail in the middle of a
// timed execution without a data race. Transfers priced before the call
// keep their old duration — exactly the semantics of a link that
// downtrains between two DMAs. The as-built Link.BW is not modified.
func (f *Fabric) DegradeAt(link int, factor float64) {
	checkDegradeFactor(factor)
	f.mustBeFrozen()
	for {
		old := f.bw[link].Load()
		degraded := math.Float64bits(math.Float64frombits(old) * factor)
		if f.bw[link].CompareAndSwap(old, degraded) {
			return
		}
	}
}

func checkDegradeFactor(factor float64) {
	if factor <= 0 || factor > 1 || math.IsNaN(factor) {
		panic(fmt.Sprintf("fabric: invalid degradation factor %g", factor))
	}
}
