package gpubackend

import (
	"fmt"

	"slicing/internal/gpusim"
)

// recKind names what a log record models.
type recKind uint8

const (
	recGet     recKind = iota // peer → rank on a copy-in engine
	recPut                    // rank → peer on a copy-out engine
	recAccum                  // accumulate into peer (intra-node or local)
	recGetPut                 // §3 accumulate into peer: get, then put
	recGemm                   // GEMM on rank's compute engine
	recWait                   // the host waits for record ref
	recBarrier                // world barrier
)

// record is one entry of a PE's log: an op priced at issue, or a host
// synchronization (recWait, recBarrier).
type record struct {
	kind  recKind
	sync  bool  // the issuing host thread waits for completion at issue
	lane  int32 // the issuing host thread (runtime.HostThread)
	peer  int32 // the remote rank
	ref   int32 // recWait: index of the awaited record in the same log
	bytes int64
	dur   float64 // priced at issue; the get half of recGetPut
	dur2  float64 // the put half of recGetPut
}

// Copy-engine directions, indexing builder.engines.
const (
	copyIn = iota
	copyOut
)

// builder is the state of one pass that turns the logs into an engine DAG.
type builder struct {
	w        *World
	frontier [][]gpusim.OpID        // per rank and host thread: the op whose end is its clock, -1 for t=0
	waited   []gpusim.OpID          // per rank: the join of the ops its futures waited for
	barrier  []gpusim.OpID          // per rank: its last barrier
	next     []int                  // per rank: its next unread record
	ids      [][]gpusim.OpID        // per rank: each record's op, so waits can find it
	engines  [2][]gpusim.ResourceID // per direction: each rank's copy engines in turn
	turn     [2][]int               // per direction and rank: the round-robin engine cursor
	dep      []gpusim.OpID
}

// schedule rebuilds the engine DAG from the logs and runs it, unless the
// logs are unchanged since the last build. Ops enter barrier epoch by
// epoch, rank-major, in log order; a barrier is a zero-duration join of
// every waiting rank's host threads. Callers hold mu.
func (w *World) schedule() {
	if w.fresh {
		return
	}
	w.fresh = true
	p := len(w.logs)
	w.eng.Reset()
	w.occ.Reset(w.eng, w.sys, p)
	b := builder{w: w, frontier: make([][]gpusim.OpID, p), waited: make([]gpusim.OpID, p),
		barrier: make([]gpusim.OpID, p), next: make([]int, p), ids: make([][]gpusim.OpID, p)}
	for rank := range b.ids {
		b.waited[rank], b.barrier[rank] = -1, -1
		b.ids[rank] = make([]gpusim.OpID, len(w.logs[rank]))
	}
	for dir, n := range [2]int{w.sys.Dev.NumCopyInEngines(), w.sys.Dev.NumCopyOutEngines()} {
		b.turn[dir] = make([]int, p)
		for i := 0; i < p*n; i++ {
			name := fmt.Sprintf("pe%d.%s%d", i/n, [2]string{"copy-in", "copy-out"}[dir], i%n)
			b.engines[dir] = append(b.engines[dir], w.eng.AddResource(name))
		}
	}
	if w.routed != nil {
		w.linkBytes = make([]int64, w.routed.NumLinks())
	}
	w.ops, w.interference = 0, 0
	for {
		var joined []gpusim.OpID
		var at []int
		for rank, log := range w.logs {
			for ; b.next[rank] < len(log) && log[b.next[rank]].kind != recBarrier; b.next[rank]++ {
				b.add(rank, b.next[rank])
			}
			if b.next[rank] < len(log) {
				at = append(at, rank)
				for _, f := range append(b.frontier[rank], b.waited[rank]) {
					if f >= 0 {
						joined = append(joined, f)
					}
				}
			}
		}
		if len(at) == 0 {
			break
		}
		barrier := w.eng.AddOp("barrier", gpusim.OpOther, 0, joined, nil)
		for _, rank := range at {
			b.frontier[rank] = b.frontier[rank][:0]
			b.waited[rank], b.barrier[rank] = -1, barrier
			b.next[rank]++
		}
	}
	w.res = w.eng.Run()
	w.resDelay = make([]float64, w.eng.NumResources())
	w.queueDelay = w.eng.QueueDelay(w.res, w.resDelay)
}

// add appends the ops of rank's record i to the DAG. Every op waits for
// its host thread's clock and for every future the rank waited on; a
// synchronous op moves its thread's clock to its end.
func (b *builder) add(rank, i int) {
	w, occ := b.w, &b.w.occ
	r := w.logs[rank][i]
	peer := int(r.peer)
	var id gpusim.OpID
	switch r.kind {
	case recWait:
		if int(r.ref) < i { // a future issued before ResetTime waits for nothing
			b.waited[rank] = b.join(b.waited[rank], b.ids[rank][r.ref])
		}
		return
	case recGet:
		id = occ.Transfer("get", gpusim.OpComm, peer, rank, r.dur, b.deps(rank, r.lane), b.engine(copyIn, rank))
		b.carry(peer, rank, r.bytes)
	case recPut:
		id = occ.Transfer("put", gpusim.OpComm, rank, peer, r.dur, b.deps(rank, r.lane), b.engine(copyOut, rank))
		b.carry(rank, peer, r.bytes)
	case recAccum:
		var engine []gpusim.ResourceID
		if peer != rank {
			engine = b.engine(copyOut, rank)
			if w.sys.Dev.AccumComputeInterference {
				w.interference += r.dur
			}
		}
		id = occ.AtomicAccum("accum", rank, peer, r.dur, b.deps(rank, r.lane), engine)
		b.carry(rank, peer, r.bytes)
	case recGetPut:
		id = occ.GetPut("get", "put", rank, peer, r.dur, r.dur2, b.deps(rank, r.lane),
			b.engine(copyIn, rank), b.engine(copyOut, rank))
		b.carry(peer, rank, r.bytes)
		b.carry(rank, peer, r.bytes)
		w.ops++ // the get half
	case recGemm:
		id = w.eng.AddOp("gemm", gpusim.OpCompute, r.dur, b.deps(rank, r.lane), occ.Compute[rank:rank+1])
	}
	w.ops++
	b.ids[rank][i] = id
	if r.sync {
		*b.lane(rank, r.lane) = id
	}
}

// lane returns rank's host thread l's clock; a thread first seen starts at
// the rank's last barrier.
func (b *builder) lane(rank int, l int32) *gpusim.OpID {
	for int(l) >= len(b.frontier[rank]) {
		b.frontier[rank] = append(b.frontier[rank], b.barrier[rank])
	}
	return &b.frontier[rank][l]
}

// deps returns what an op issued on rank's host thread l waits for.
func (b *builder) deps(rank int, l int32) []gpusim.OpID {
	b.dep = b.dep[:0]
	for _, d := range [2]gpusim.OpID{*b.lane(rank, l), b.waited[rank]} {
		if d >= 0 && (len(b.dep) == 0 || b.dep[0] != d) {
			b.dep = append(b.dep, d)
		}
	}
	return b.dep
}

// join returns an op that ends when both a and c have (-1 is t=0),
// adding a zero-duration join only when neither is the other.
func (b *builder) join(a, c gpusim.OpID) gpusim.OpID {
	if a < 0 || a == c {
		return c
	}
	b.dep = append(b.dep[:0], a, c)
	return b.w.eng.AddOp("join", gpusim.OpOther, 0, b.dep, nil)
}

// engine takes rank's next copy engine in direction dir, round-robin in
// log order.
func (b *builder) engine(dir, rank int) []gpusim.ResourceID {
	n := len(b.engines[dir]) / len(b.turn[dir])
	i := rank*n + b.turn[dir][rank]%n
	b.turn[dir][rank]++
	return b.engines[dir][i : i+1]
}

// carry adds a transfer's payload to every link of its route.
func (b *builder) carry(src, dst int, bytes int64) {
	if b.w.routed == nil || src == dst {
		return
	}
	for _, li := range b.w.routed.RouteIDs(src, dst) {
		b.w.linkBytes[li] += bytes
	}
}
