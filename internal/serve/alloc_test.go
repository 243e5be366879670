package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"slicing/internal/distmat"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
)

// closedLoop is the benchmark's serving shape in miniature: tenants of
// n³ requests in n/2-square tiles (one whole tile at 16³, on rank 0) over a
// 2×2 grid of 4 PEs, tenants sharing their A and B, one C per closed-loop
// client. The clients are started once and parked between rounds, so a
// round runs nothing but the request path.
type closedLoop struct {
	s      *Server
	rounds []chan int     // per client: how many requests to submit next
	errs   chan error     // one result per client per round
	wg     sync.WaitGroup // the clients
}

// newSmallLoop is serve-small's shape: every tenant 16³.
func newSmallLoop(tb testing.TB, tenants, clients, batch int) *closedLoop {
	dims := make([]int, tenants)
	for t := range dims {
		dims[t] = 16
	}
	return newClosedLoop(tb, dims, clients, batch)
}

// newClosedLoop has one tenant per entry of dims, of that size; client i
// submits for tenant i mod len(dims).
func newClosedLoop(tb testing.TB, dims []int, clients, batch int) *closedLoop {
	tb.Helper()
	w := shmem.NewWorld(4)
	parts := make([]distmat.Partition, len(dims))
	as := make([]*distmat.Matrix, len(dims))
	bs := make([]*distmat.Matrix, len(dims))
	for t, n := range dims {
		tileN := max(16, n/2)
		parts[t] = distmat.Custom{TileRows: tileN, TileCols: tileN, ProcRows: 2, ProcCols: 2}
		as[t] = distmat.New(w, n, n, parts[t], 1)
		bs[t] = distmat.New(w, n, n, parts[t], 1)
	}
	w.Run(func(pe rt.PE) {
		for t := range as {
			as[t].FillRandom(pe, int64(2*t+1))
			bs[t].FillRandom(pe, int64(2*t+2))
		}
	})
	l := &closedLoop{
		s:      NewServer(w, Config{Batch: batch, Queue: clients}),
		rounds: make([]chan int, clients),
		errs:   make(chan error, clients),
	}
	for i := range l.rounds {
		t := i % len(dims)
		name, c := fmt.Sprintf("tenant-%d", t), distmat.New(w, dims[t], dims[t], parts[t], 1)
		round := make(chan int)
		l.rounds[i] = round
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for n := range round {
				var err error
				for k := 0; k < n && err == nil; k++ {
					_, err = l.s.Multiply(context.Background(), name, c, as[t], bs[t])
				}
				l.errs <- err
			}
		}()
	}
	return l
}

// run has every client submit perClient requests back to back and waits
// for all of them.
func (l *closedLoop) run(tb testing.TB, perClient int) {
	for _, round := range l.rounds {
		round <- perClient
	}
	for range l.rounds {
		if err := <-l.errs; err != nil {
			tb.Fatal(err)
		}
	}
}

func (l *closedLoop) close() {
	for _, round := range l.rounds {
		close(round)
	}
	l.wg.Wait()
	l.s.Close()
}

// BenchmarkServeSmall is one op per served request of the serve-small
// shape: 128 closed-loop clients, 4 tenants, batches of 64.
func BenchmarkServeSmall(b *testing.B) {
	l := newSmallLoop(b, 4, 128, 64)
	defer l.close()
	l.run(b, 20) // compile, fill the pools and the free lists
	b.ReportAllocs()
	b.ResetTimer()
	l.run(b, (b.N+127)/128)
}

// mallocsPer runs rounds of the loop and returns the heap objects the whole
// process allocated per request.
func mallocsPer(tb testing.TB, l *closedLoop, perClient int) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.run(tb, perClient)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(perClient*len(l.rounds))
}

// A warm closed loop allocates (next to) nothing per request: requests and
// their reply channels come from the server's free list, tenant queues are
// rings, and the dispatcher, World.Run and the executor reuse their
// per-batch state. What remains is the occasional refill of a free list or
// pool that a garbage collection emptied. Two loops: serve-small's uniform
// 16³ one, and a mixed one in which 16³ requests, answered early by rank
// 0, share batches with 256³ requests on all four ranks — an early answer
// is one channel send and a few writes to the dispatcher's own slots. The
// mixed loop warms up longer: its 256³ requests start helpers on every
// rank, and the runtime's and the pools' records for them (goroutines,
// channel waiters, crews, partial buffers) keep growing to new high-water
// marks for a while, a few dozen objects in all.
func TestServeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	const bound = 0.02
	for _, tc := range []struct {
		name                       string
		dims                       []int
		clients, batch, warm, runs int
	}{
		{"uniform", []int{16, 16, 16, 16}, 32, 16, 100, 200},
		{"mixed", []int{16, 256}, 16, 16, 200, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newClosedLoop(t, tc.dims, tc.clients, tc.batch)
			defer l.close()
			l.run(t, tc.warm) // compile, fill the pools and the free lists
			if per := mallocsPer(t, l, tc.runs); per > bound {
				t.Errorf("a warm served request allocates %.4f heap objects, want at most %v", per, bound)
			} else {
				t.Logf("%.4f heap objects per request", per)
			}
		})
	}
}
