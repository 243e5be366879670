package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"slicing/internal/distmat"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// tenantFixture is one tenant's workload: shared operands, one result
// matrix per concurrent request, and the serial reference product.
type tenantFixture struct {
	name    string
	a, b    *distmat.Matrix
	cs      []*distmat.Matrix
	ref     *tile.Matrix
	m, n, k int
}

// makeTenant builds and fills a tenant's matrices and reference before the
// server takes ownership of the world's Run. A is row-blocked, B
// column-blocked and every C 2-D blocked, so each request's plan spans the
// world's ranks.
func makeTenant(w rt.World, name string, m, n, k, requests int, seed int64) *tenantFixture {
	return makeTenantOn(w, name, m, n, k, requests, seed, distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{})
}

// soloPart keeps a matrix of up to 32×32 in one tile on rank 0 of a 4-PE
// world. A request whose three matrices use it has a solo plan
// (universal.CompiledPlan.SoloRank): rank 0 does all of it, so the server
// answers it as soon as rank 0 retires it, before its batch ends.
var soloPart = distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}

// makeSoloTenant is makeTenant with every matrix in soloPart.
func makeSoloTenant(w rt.World, name string, m, n, k, requests int, seed int64) *tenantFixture {
	return makeTenantOn(w, name, m, n, k, requests, seed, soloPart, soloPart, soloPart)
}

// makeTenantOn is makeTenant with A, B and each C partitioned by pa, pb, pc.
func makeTenantOn(w rt.World, name string, m, n, k, requests int, seed int64, pa, pb, pc distmat.Partition) *tenantFixture {
	f := &tenantFixture{name: name, m: m, n: n, k: k}
	f.a = distmat.New(w, m, k, pa, 1)
	f.b = distmat.New(w, k, n, pb, 1)
	for i := 0; i < requests; i++ {
		f.cs = append(f.cs, distmat.New(w, m, n, pc, 1))
	}
	w.Run(func(pe rt.PE) {
		f.a.FillRandom(pe, seed)
		f.b.FillRandom(pe, seed+1)
		if pe.Rank() == 0 {
			fullA := f.a.Gather(pe, 0)
			fullB := f.b.Gather(pe, 0)
			f.ref = tile.New(m, n)
			tile.GemmNaive(f.ref, fullA, fullB)
		}
	})
	return f
}

func maxRelDiff(x, y *tile.Matrix) float64 {
	worst := 0.0
	for i := range x.Data {
		diff := math.Abs(float64(x.Data[i] - y.Data[i]))
		scale := math.Max(math.Abs(float64(x.Data[i])), 1)
		if d := diff / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// checkResults gathers every result matrix and compares it to the tenant's
// reference. Callers must have quiesced the server (Close) first so the
// gather's world.Run cannot race the dispatcher's.
func checkResults(t *testing.T, w rt.World, fixtures []*tenantFixture) {
	t.Helper()
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		for _, f := range fixtures {
			for i, c := range f.cs {
				got := c.Gather(pe, 0)
				if d := maxRelDiff(f.ref, got); d > 1e-4 {
					t.Errorf("tenant %s request %d: max rel diff %g vs GemmNaive", f.name, i, d)
				}
			}
		}
	})
}

func TestServeConcurrentTenantsMatchReference(t *testing.T) {
	const p = 4
	w := shmem.NewWorld(p)
	fixtures := []*tenantFixture{
		makeTenant(w, "alpha", 24, 20, 16, 4, 100),
		makeTenant(w, "beta", 17, 23, 19, 4, 200),
		makeTenant(w, "gamma", 32, 8, 24, 4, 300),
	}
	s := NewServer(w, Config{Batch: 3, Queue: 32})
	var wg sync.WaitGroup
	for _, f := range fixtures {
		for _, c := range f.cs {
			wg.Add(1)
			go func(f *tenantFixture, c *distmat.Matrix) {
				defer wg.Done()
				if _, err := s.Multiply(context.Background(), f.name, c, f.a, f.b); err != nil {
					t.Errorf("tenant %s: %v", f.name, err)
				}
			}(f, c)
		}
	}
	wg.Wait()
	st := s.Stats()
	s.Close()
	checkResults(t, w, fixtures)

	if st.Served != 12 {
		t.Fatalf("served %d requests, want 12", st.Served)
	}
	for _, f := range fixtures {
		ts, ok := st.Tenants[f.name]
		if !ok || ts.Served != 4 {
			t.Fatalf("tenant %s served %d, want 4", f.name, ts.Served)
		}
		if ts.Traffic.LocalOps+ts.Traffic.RemoteOps == 0 {
			t.Fatalf("tenant %s attributed no traffic", f.name)
		}
	}
	// Three distinct shapes → exactly three compilations, everything else
	// served from the cache.
	if st.PlanCache.Builds != 3 {
		t.Fatalf("plan cache compiled %d times, want 3", st.PlanCache.Builds)
	}
	if pct := st.PlanCache.HitPct(); pct < 50 {
		t.Fatalf("plan cache hit pct %g, want the steady state cached", pct)
	}
	if st.Batches == 0 || st.BatchedRequests != 12 {
		t.Fatalf("batching accounting: %d batches, %d requests", st.Batches, st.BatchedRequests)
	}
}

// queuedLen returns the number of requests queued across all tenants.
func queuedLen(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tenants {
		n += t.queue.n
	}
	return n
}

// retained counts the slots of t's queue outside its live window that still
// hold a request.
func retained(s *Server, t *tenant) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := t.queue.n; i < len(t.queue.buf); i++ {
		if *t.queue.slot(i) != nil {
			n++
		}
	}
	return n
}

// A request that left its tenant's queue — dequeued into a served batch, or
// cancelled while queued — is not reachable from the queue afterwards: a
// stale slot would keep the caller's context and operands alive, and the
// request itself once the free list hands it to another caller.
func TestDequeuedRequestsNotRetained(t *testing.T) {
	w := shmem.NewWorld(2)
	f := makeTenant(w, "t", 8, 8, 8, 3, 8)
	s := newServer(w, Config{Batch: 2}) // paused: stage the queue first
	rs := make([]*request, len(f.cs))
	for i, c := range f.cs {
		rs[i] = s.getRequest()
		rs[i].ctx, rs[i].prob, rs[i].queued = context.Background(), universal.NewProblem(c, f.a, f.b), time.Now()
		if err := s.enqueue("t", rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ten := s.tenants["t"]
	if !s.tryCancel(rs[1]) {
		t.Fatal("queued request could not be cancelled")
	}
	if n := retained(s, ten); n != 0 {
		t.Fatalf("after a cancel, %d slots outside the live window hold a request", n)
	}
	s.Start()
	s.wake <- struct{}{}
	<-rs[0].done
	<-rs[2].done
	if n := retained(s, ten); n != 0 || queuedLen(s) != 0 {
		t.Fatalf("after a served batch, %d slots outside the live window hold a request (%d queued)", n, queuedLen(s))
	}
	s.Close()
	for _, r := range rs {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// The admission queue is bounded: a full tenant queue rejects rather than
// buffering, and the rejection is accounted.
func TestServeQueueFull(t *testing.T) {
	const p = 2
	w := shmem.NewWorld(p)
	f := makeTenant(w, "solo", 12, 10, 8, 3, 1)
	s := newServer(w, Config{Queue: 2, Batch: 1}) // paused: nothing drains
	mkReq := func(c *distmat.Matrix) *request {
		return &request{
			ctx:    context.Background(),
			prob:   universal.NewProblem(c, f.a, f.b),
			done:   make(chan struct{}, 1),
			queued: time.Now(),
		}
	}
	r1, r2, r3 := mkReq(f.cs[0]), mkReq(f.cs[1]), mkReq(f.cs[2])
	if err := s.enqueue("solo", r1); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue("solo", r2); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue("solo", r3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue into capacity-2 queue: %v", err)
	}
	if queuedLen(s) != 2 {
		t.Fatalf("queued %d, want 2", queuedLen(s))
	}
	// Un-pause; the two admitted requests must complete.
	s.Start()
	s.wake <- struct{}{}
	<-r1.done
	<-r2.done
	st := s.Stats()
	s.Close()
	if st.Rejected != 1 || st.Tenants["solo"].Rejected != 1 {
		t.Fatalf("rejected accounting: %+v", st)
	}
	checkResults(t, w, []*tenantFixture{{name: "solo", cs: f.cs[:2], ref: f.ref}})
}

// A request whose context is cancelled while queued never executes.
func TestServeCancelWhileQueued(t *testing.T) {
	const p = 2
	w := shmem.NewWorld(p)
	f := makeTenant(w, "slow", 12, 10, 8, 1, 2)
	s := newServer(w, Config{}) // paused: the request stays queued
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Multiply(ctx, "slow", f.cs[0], f.a, f.b)
		errc <- err
	}()
	for queuedLen(s) != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued request returned %v", err)
	}
	if queuedLen(s) != 0 {
		t.Fatal("cancelled request still queued")
	}
	st := s.Stats()
	if st.Cancelled != 1 || st.Served != 0 {
		t.Fatalf("cancel accounting: %+v", st)
	}
	s.Start()
	s.Close()
}

// An already-expired context fails fast without touching the queue.
func TestServeExpiredContextFailsFast(t *testing.T) {
	w := shmem.NewWorld(2)
	f := makeTenant(w, "late", 8, 8, 8, 1, 3)
	s := NewServer(w, Config{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Multiply(ctx, "late", f.cs[0], f.a, f.b); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context returned %v", err)
	}
	if st := s.Stats(); st.Served != 0 || queuedLen(s) != 0 {
		t.Fatal("expired request reached the queue")
	}
}

// Round-robin admission: a flooding tenant cannot starve others — each
// batch interleaves one request per tenant per ring pass.
func TestServeFairnessRoundRobin(t *testing.T) {
	const p = 2
	w := shmem.NewWorld(p)
	flood := makeTenant(w, "flood", 8, 8, 8, 6, 4)
	meek := makeTenant(w, "meek", 8, 8, 8, 2, 5)
	s := newServer(w, Config{Batch: 4, Queue: 16}) // paused: inspect batches directly
	mkReq := func(f *tenantFixture, c *distmat.Matrix) *request {
		return &request{
			ctx: context.Background(), prob: universal.NewProblem(c, f.a, f.b),
			done: make(chan struct{}, 1), queued: time.Now(),
		}
	}
	for _, c := range flood.cs {
		if err := s.enqueue("flood", mkReq(flood, c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range meek.cs {
		if err := s.enqueue("meek", mkReq(meek, c)); err != nil {
			t.Fatal(err)
		}
	}
	order := func(batch []batchSlot) []string {
		var names []string
		for _, sl := range batch {
			names = append(names, sl.tenant.name)
		}
		return names
	}
	// Pass 1 takes one from each tenant, pass 2 again: flood,meek,flood,meek
	// (ring order is sorted tenant names, start rotates).
	b1 := order(s.nextBatch())
	counts := map[string]int{}
	for _, n := range b1 {
		counts[n]++
	}
	if len(b1) != 4 || counts["meek"] != 2 || counts["flood"] != 2 {
		t.Fatalf("first batch %v: flooding tenant crowded out the meek one", b1)
	}
	b2 := order(s.nextBatch())
	if len(b2) != 4 {
		t.Fatalf("second batch %v, want the remaining 4 flood requests", b2)
	}
	for _, n := range b2 {
		if n != "flood" {
			t.Fatalf("second batch %v contains drained tenant", b2)
		}
	}
	if queuedLen(s) != 0 {
		t.Fatalf("still queued: %d", queuedLen(s))
	}
	// The popped requests were never executed; finish them so nothing leaks.
	s.Start()
	s.Close()
}

// Close fails queued requests with ErrClosed and rejects new submissions.
func TestServeClose(t *testing.T) {
	w := shmem.NewWorld(2)
	f := makeTenant(w, "t", 8, 8, 8, 2, 6)
	s := newServer(w, Config{}) // paused so the request is still queued at Close
	errc := make(chan error, 1)
	go func() {
		_, err := s.Multiply(context.Background(), "t", f.cs[0], f.a, f.b)
		errc <- err
	}()
	for queuedLen(s) != 1 {
		time.Sleep(time.Millisecond)
	}
	s.Start()
	s.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) && err != nil {
		// The dispatcher may legitimately serve the request before seeing
		// quit; both outcomes are correct, anything else is not.
		t.Fatalf("queued request at Close returned %v", err)
	}
	if _, err := s.Multiply(context.Background(), "t", f.cs[1], f.a, f.b); !errors.Is(err, ErrClosed) {
		t.Fatalf("Multiply after Close returned %v", err)
	}
	s.Close() // idempotent
}

// The serving surface returns errors, never panics, on bad operands.
func TestServeValidatesOperands(t *testing.T) {
	w := shmem.NewWorld(2)
	other := shmem.NewWorld(2)
	f := makeTenant(w, "v", 8, 8, 8, 1, 7)
	foreign := distmat.New(other, 8, 8, distmat.RowBlock{}, 1)
	s := NewServer(w, Config{})
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Multiply(ctx, "v", nil, f.a, f.b); err == nil {
		t.Fatal("nil operand accepted")
	}
	if _, err := s.Multiply(ctx, "v", foreign, f.a, f.b); err == nil {
		t.Fatal("foreign-world matrix accepted")
	}
	bad := distmat.New(w, 7, 9, distmat.RowBlock{}, 1) // shape mismatch
	if _, err := s.Multiply(ctx, "v", bad, f.a, f.b); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if st := s.Stats(); st.Served != 0 {
		t.Fatal("invalid request was served")
	}
}
