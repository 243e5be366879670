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

// smallLoop is the benchmark's serve-small shape in miniature: 16³
// requests whose one 16×16 tile sits on rank 0 of a 2×2 grid of 4 PEs,
// tenants sharing their A and B, one C per closed-loop client. The clients
// are started once and parked between rounds, so a round runs nothing but
// the request path.
type smallLoop struct {
	s      *Server
	rounds []chan int     // per client: how many requests to submit next
	errs   chan error     // one result per client per round
	wg     sync.WaitGroup // the clients
}

func newSmallLoop(tb testing.TB, tenants, clients, batch int) *smallLoop {
	tb.Helper()
	w := shmem.NewWorld(4)
	part := distmat.Custom{TileRows: 16, TileCols: 16, ProcRows: 2, ProcCols: 2}
	as := make([]*distmat.Matrix, tenants)
	bs := make([]*distmat.Matrix, tenants)
	for t := range as {
		as[t] = distmat.New(w, 16, 16, part, 1)
		bs[t] = distmat.New(w, 16, 16, part, 1)
	}
	w.Run(func(pe rt.PE) {
		for t := range as {
			as[t].FillRandom(pe, int64(2*t+1))
			bs[t].FillRandom(pe, int64(2*t+2))
		}
	})
	l := &smallLoop{
		s:      NewServer(w, Config{Batch: batch, Queue: clients}),
		rounds: make([]chan int, clients),
		errs:   make(chan error, clients),
	}
	for i := range l.rounds {
		t := i % tenants
		name, c := fmt.Sprintf("tenant-%d", t), distmat.New(w, 16, 16, part, 1)
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
func (l *smallLoop) run(tb testing.TB, perClient int) {
	for _, round := range l.rounds {
		round <- perClient
	}
	for range l.rounds {
		if err := <-l.errs; err != nil {
			tb.Fatal(err)
		}
	}
}

func (l *smallLoop) close() {
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
func mallocsPer(tb testing.TB, l *smallLoop, perClient int) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.run(tb, perClient)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(perClient*len(l.rounds))
}

// A warm closed loop of 16³ requests allocates (next to) nothing per
// request: requests and their reply channels come from the server's free
// list, tenant queues are rings, and the dispatcher, World.Run and the
// executor reuse their per-batch state. What remains is the occasional
// refill of a free list or pool that a garbage collection emptied.
func TestServeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	l := newSmallLoop(t, 4, 32, 16)
	defer l.close()
	l.run(t, 100) // compile, fill the pools and the free lists
	const bound = 0.02
	if per := mallocsPer(t, l, 200); per > bound {
		t.Errorf("a warm served request allocates %.4f heap objects, want at most %v", per, bound)
	} else {
		t.Logf("%.4f heap objects per request", per)
	}
}
