package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Span kinds. The tree is workload → op (one multiply, or the client-side
// Server.Multiply call) and workload → activation (each World.Run) → pe
// (rank body) → get / put / accum / barrier.
type spanKind uint8

const (
	kindWorkload spanKind = iota
	kindOp
	kindActivation
	kindPE
	kindGet
	kindPut
	kindAccum
	kindBarrier
	numKinds
)

var kindNames = [numKinds]string{"workload", "op", "activation", "pe", "get", "put", "accum", "barrier"}

// span is one timed interval. IDs are 1-based indices into the tracer's
// store; parent 0 means none. Seq is the op or activation the span
// belongs to.
type span struct {
	Kind       spanKind
	PE         int16
	Parent     int32
	Seq        int32
	Start, End int64 // ns since the tracer's base
	Bytes      int64
}

// maxSpans bounds a traced slice's span store (about 12 MB). A traced
// phase ends early when the store fills, so recorded activations are
// complete.
const maxSpans = 1 << 18

// tracer records spans in memory, in a preallocated store indexed by one
// atomic counter, so recording takes no lock and allocates nothing.
type tracer struct {
	base  time.Time
	spans []span
	next  atomic.Int64
	on    atomic.Bool
	// fullAt is when the store first refused a span (0 = never). Analysis
	// ignores every activation still running then: it lost children.
	fullAt atomic.Int64
	acts   atomic.Int32 // activation sequence
	ops    atomic.Int32 // op sequence
	root   int32
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, maxSpans)}
	for i := range t.spans {
		t.spans[i].Seq = 1 // touch every page now, not inside the measured phase
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its ID, or 0 when tracing is off or the
// store is full.
func (t *tracer) begin(kind spanKind, pe int, parent, seq int32) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	i := t.next.Add(1)
	if i > int64(len(t.spans)) {
		t.fullAt.CompareAndSwap(0, t.now())
		return 0
	}
	t.spans[i-1] = span{Kind: kind, PE: int16(pe), Parent: parent, Seq: seq, Start: t.now()}
	return int32(i)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32, bytes int64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End, s.Bytes = t.now(), bytes
}

// full reports whether the store has no room left.
func (t *tracer) full() bool { return t != nil && t.next.Load() >= int64(len(t.spans)) }

// start opens the root workload span and turns recording on; stop closes
// it and turns recording off.
func (t *tracer) start() {
	t.on.Store(true)
	t.root = t.begin(kindWorkload, -1, 0, 0)
}

func (t *tracer) stop() {
	t.end(t.root, 0)
	t.on.Store(false)
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	n := min(int(t.next.Load()), len(t.spans))
	return t.spans[:n]
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// covered returns how much of [start, end) the given intervals cover,
// counting overlapping intervals once.
func covered(start, end int64, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	var total int64
	at := start
	for _, c := range children {
		lo, hi := max(c.start, at), min(c.end, end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of that interval its child
// spans cover.
func selfTime(start, end int64, children []interval) int64 {
	return (end - start) - covered(start, end, children)
}

// writeSpans writes the spans as JSON: a header naming the columns, then
// one array per span.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"schema":"bench-spans/v1","workload":"` + workload + `","kinds":[`)
	for i, n := range kindNames {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString(`],"columns":["id","kind","pe","parent","seq","start_ns","end_ns","bytes"],"spans":[`)
	var buf []byte
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n["...)
		for j, v := range [...]int64{int64(i + 1), int64(s.Kind), int64(s.PE), int64(s.Parent), int64(s.Seq), s.Start, s.End, s.Bytes} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
