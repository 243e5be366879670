package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"slicing/internal/chaos"
	"slicing/internal/distmat"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/simnet"
	"slicing/internal/universal"
)

// hammer drives tenants×perTenant concurrent requests through one server
// and verifies every result against the serial reference. Run with -race:
// this is the concurrency contract of the whole serving stack — admission,
// batching, the shared plan cache, and the pooled executor. With solo, every
// odd tenant's matrices sit in one tile on rank 0 (makeSoloTenant), so its
// requests are answered before their batches end, while the batch's other
// requests still run on every rank.
func hammer(t *testing.T, w rt.World, tenants, perTenant int, solo bool) {
	t.Helper()
	var fixtures []*tenantFixture
	shapes := [][3]int{{24, 20, 16}, {17, 23, 19}, {32, 8, 24}, {11, 13, 29}}
	for i := 0; i < tenants; i++ {
		sh := shapes[i%len(shapes)]
		build := makeTenant
		if solo && i%2 == 1 {
			build = makeSoloTenant
		}
		fixtures = append(fixtures,
			build(w, fmt.Sprintf("tenant-%d", i), sh[0], sh[1], sh[2], perTenant, int64(100*i+1)))
	}
	pool := gpusim.NewPool()
	s := NewServer(w, Config{
		Batch: 4, Queue: tenants * perTenant,
		Exec: universal.Config{Pool: pool},
	})
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
	if want := int64(tenants * perTenant); st.Served != want {
		t.Fatalf("served %d, want %d", st.Served, want)
	}
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("%d pooled elements leaked across the hammer", live)
	}
	// One compile per distinct shape, every other lookup served from the
	// cache: the dispatcher looks each request's plan up exactly once.
	pc := st.PlanCache
	if want := int64(min(tenants, len(shapes))); pc.Builds != want {
		t.Fatalf("plan cache compiled %d times, want %d (one per distinct tenant shape)", pc.Builds, want)
	}
	if got, want := pc.Hits+pc.Misses+pc.Coalesced, int64(tenants*perTenant); got != want {
		t.Fatalf("plan cache saw %d lookups (%d hits + %d misses + %d coalesced), want %d",
			got, pc.Hits, pc.Misses, pc.Coalesced, want)
	}
}

func hammerScale() (tenants, perTenant int) {
	if raceEnabled || testing.Short() {
		return 3, 3
	}
	return 4, 6
}

func TestServeHammerShmem(t *testing.T) {
	tenants, perTenant := hammerScale()
	hammer(t, shmem.NewWorld(4), tenants, perTenant, false)
}

func TestServeHammerTimedBackend(t *testing.T) {
	const p = 4
	tenants, perTenant := hammerScale()
	topo := simnet.NewUniform(p, 100e9, 1e12, 1e-6, "stress")
	w := gpubackend.New(topo, gpusim.PresetPVCDevice()).NewWorld(p)
	hammer(t, w, tenants, perTenant, false)
}

// The hammer with solo tenants mixed in, on both backends: requests
// answered mid-batch and requests answered at its end share batches.
func TestServeHammerEarlyRelease(t *testing.T) {
	const p = 4
	tenants, perTenant := hammerScale()
	topo := simnet.NewUniform(p, 100e9, 1e12, 1e-6, "stress")
	for name, w := range map[string]rt.World{
		"shmem": shmem.NewWorld(p),
		"timed": gpubackend.New(topo, gpusim.PresetPVCDevice()).NewWorld(p),
	} {
		t.Run(name, func(t *testing.T) { hammer(t, w, tenants, perTenant, true) })
	}
}

// A solo request is answered when rank 0 retires it, not when its batch
// ends. Rank 1 stalls on its first op of the batch's other request, which
// spans the world, so the batch cannot end for a while; the solo requests'
// replies must arrive in that window, before any batch has been settled and
// before the spanning request's reply. Stats, which waits for the batch in
// flight, counts them all even when called right after the first.
func TestServeAnswersSoloRequestsEarly(t *testing.T) {
	plan := &chaos.Plan{Seed: 5, Rules: []chaos.Rule{
		{Name: "stall", Kind: chaos.Delay, Ranks: []int{1}, Rate: 1, MaxFires: 1, Delay: 200 * time.Millisecond},
	}}
	w, _ := chaosWorld(plan)
	wide := makeTenant(w, "wide", 24, 20, 16, 1, 7)
	solo := makeSoloTenant(w, "solo", 16, 16, 16, 4, 8)
	s := newServer(w, Config{Batch: 8, Queue: 8}) // started once all are queued
	type reply struct {
		tenant  string
		batches int64 // batches settled when the reply arrived
		err     error
	}
	replies := make(chan reply, 1+len(solo.cs))
	submit := func(f *tenantFixture, c *distmat.Matrix) {
		_, err := s.Multiply(context.Background(), f.name, c, f.a, f.b)
		s.mu.Lock() // not Stats: it would wait for the batch to settle
		settled := s.batches
		s.mu.Unlock()
		replies <- reply{f.name, settled, err}
	}
	go submit(wide, wide.cs[0])
	for _, c := range solo.cs {
		go submit(solo, c)
	}
	for queuedLen(s) < 1+len(solo.cs) {
		time.Sleep(time.Millisecond)
	}
	s.Start()
	for i := 0; i <= len(solo.cs); i++ {
		r := <-replies
		if r.err != nil {
			t.Fatalf("%s: %v", r.tenant, r.err)
		}
		if last := i == len(solo.cs); last != (r.tenant == "wide") {
			t.Fatalf("reply %d is %s's; want the %d solo replies before the spanning one", i, r.tenant, len(solo.cs))
		}
		if r.tenant == "solo" && r.batches != 0 {
			t.Fatalf("a solo request was answered after %d batch(es) settled, want mid-batch", r.batches)
		}
		if i == 0 {
			// Stats waits for the batch in flight, so it counts this reply.
			if st := s.Stats(); st.Served != int64(1+len(solo.cs)) {
				t.Fatalf("Stats after a mid-batch reply counts %d served, want the whole batch's %d", st.Served, 1+len(solo.cs))
			}
		}
	}
	st := s.Stats()
	s.Close()
	if st.Batches != 1 || st.Served != int64(1+len(solo.cs)) {
		t.Fatalf("want one batch serving all %d requests: %+v", 1+len(solo.cs), st)
	}
	checkResults(t, w, []*tenantFixture{wide, solo})
}

// A storm of deadline-cancelled requests interleaved with healthy ones must
// never corrupt the cached plan or leak a pooled buffer: afterwards the
// server still serves bit-sane results and the pool balances to zero.
func TestServeCancellationStorm(t *testing.T) {
	const p = 4
	w := shmem.NewWorld(p)
	f := makeTenant(w, "healthy", 24, 20, 16, 3, 900)
	storm := makeTenant(w, "storm", 24, 20, 16, 1, 901)
	pool := gpusim.NewPool()
	s := NewServer(w, Config{
		Batch: 2, Queue: 64,
		Exec: universal.Config{Pool: pool},
	})

	n := 30
	if raceEnabled || testing.Short() {
		n = 12
	}
	var wg sync.WaitGroup
	var cancelled, completed int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Deadlines from already-expired to comfortably long: some die
			// in the queue, some mid-wait, some complete.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*500*time.Microsecond)
			defer cancel()
			_, err := s.Multiply(ctx, "storm", storm.cs[0], storm.a, storm.b)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, context.DeadlineExceeded):
				cancelled++
			default:
				t.Errorf("storm request %d: %v", i, err)
			}
		}(i)
	}
	// Healthy traffic through the storm.
	for _, c := range f.cs {
		wg.Add(1)
		go func(c *distmat.Matrix) {
			defer wg.Done()
			if _, err := s.Multiply(context.Background(), "healthy", c, f.a, f.b); err != nil {
				t.Errorf("healthy request: %v", err)
			}
		}(c)
	}
	wg.Wait()

	// The cache must still serve a correct multiply after the storm: a
	// cancelled request must not have poisoned the compiled plan.
	post := distmat.New(w, 24, 20, distmat.Block2D{}, 1)
	// The matrix was created after serving began; quiesce before using it.
	if _, err := s.Multiply(context.Background(), "healthy", post, f.a, f.b); err != nil {
		t.Fatalf("post-storm request: %v", err)
	}
	st := s.Stats()
	s.Close()
	checkResults(t, w, []*tenantFixture{f, {name: "post", cs: []*distmat.Matrix{post}, ref: f.ref}})

	if st.Tenants["healthy"].Served != int64(len(f.cs))+1 {
		t.Fatalf("healthy tenant served %d", st.Tenants["healthy"].Served)
	}
	if completed+cancelled != int64(n) {
		t.Fatalf("storm outcomes: %d completed + %d deadline-exceeded != %d", completed, cancelled, n)
	}
	// Requests that returned nil are exactly the ones served within their
	// deadline. Expired counts both late completions and fast-fails that
	// were already past deadline at admission, and Cancelled the ones
	// removed from the queue, so the count of in-time completions is what
	// remains of the storm after both.
	storm1 := st.Tenants["storm"]
	if got := int64(n) - storm1.Cancelled - storm1.Expired; got != completed {
		t.Fatalf("storm accounting: %d - cancelled %d - expired %d != %d client completions",
			int64(n), storm1.Cancelled, storm1.Expired, completed)
	}
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("%d pooled elements leaked across the storm", live)
	}
	// Exactly one shape was ever requested → exactly one compilation.
	if st.PlanCache.Builds != 1 {
		t.Fatalf("storm caused %d compilations, want 1", st.PlanCache.Builds)
	}
}
