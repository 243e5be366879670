package fabric

// Queues is the mutable occupancy state of one fabric for one timed
// world: per-link FIFO availability plus busy/queue-delay/byte counters.
// The Fabric itself stays immutable and shareable; every world that
// models time over it owns a Queues.
//
// The queue discipline matches the repo's port and stream models
// (gpubackend's ports, gpusim's Timeline): a transfer occupies every link
// of its route exclusively from its start to its end, its start is the
// earliest instant its initiator is ready and every link on the route is
// free, and the gap between ready and start is queue delay attributed to
// the last link to free up (the binding constraint). Reserving whole
// routes end-to-end (rather than per-hop store-and-forward) keeps the
// model consistent with the scalar backends so the degenerate fabric
// reproduces their numbers exactly; it also means a congested link
// serializes entire transfers rather than fair-sharing its bandwidth —
// the conservative FIFO reading of incast.
//
// Queues is not synchronized: callers serialize access (the timed
// backends already hold their world mutex while charging time).
type Queues struct {
	free  []float64 // per-link availability
	busy  []float64 // per-link occupied seconds
	wait  []float64 // per-link queue delay imposed on transfers
	bytes []int64   // per-link payload bytes carried
}

// NewQueues returns fresh (all-idle) occupancy state for numLinks links
// (a fabric's NumLinks, or any simnet.Routed topology's).
func NewQueues(numLinks int) *Queues {
	return &Queues{
		free:  make([]float64, numLinks),
		busy:  make([]float64, numLinks),
		wait:  make([]float64, numLinks),
		bytes: make([]int64, numLinks),
	}
}

// Reserve schedules a transfer of payload bytes over route: it starts at
// the earliest instant ≥ ready at which every link on the route is free,
// occupies all of them for dur seconds, and returns the start and end
// times. An empty route (device-local copy) starts at ready and touches
// no link state.
//
// The queue delay (start − ready) is attributed to the binding constraint:
// the route link whose availability set the start time. When several links
// tie as the binding constraint, the lowest link index wins — a fixed rule,
// so per-link delay attribution is independent of route traversal order.
func (q *Queues) Reserve(route []int, ready, dur float64, payload int64) (start, end float64) {
	start = ready
	blocker := -1
	for _, li := range route {
		switch {
		case q.free[li] > start:
			start = q.free[li]
			blocker = li
		case blocker >= 0 && q.free[li] == start && li < blocker:
			blocker = li
		}
	}
	if blocker >= 0 {
		q.wait[blocker] += start - ready
	}
	end = start + dur
	for _, li := range route {
		q.free[li] = end
		q.busy[li] += dur
		q.bytes[li] += payload
	}
	return start, end
}

// Reset rewinds every link to idle and zeroes the counters.
func (q *Queues) Reset() {
	for i := range q.free {
		q.free[i] = 0
		q.busy[i] = 0
		q.wait[i] = 0
		q.bytes[i] = 0
	}
}

// BusyFor returns the seconds one link was occupied.
func (q *Queues) BusyFor(link int) float64 { return q.busy[link] }

// QueueDelayFor returns the queue delay attributed to one link.
func (q *Queues) QueueDelayFor(link int) float64 { return q.wait[link] }

// BytesFor returns the payload bytes carried over one link.
func (q *Queues) BytesFor(link int) int64 { return q.bytes[link] }
