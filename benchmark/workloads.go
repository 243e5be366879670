package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"slicing"
)

// A workload is one set of inputs the benchmark runs. The harness drives
// it as a closed loop: clients() callers each block in op until it
// returns, then issue the next. One op is one whole multiply, one served
// request, or one model point.
type workload interface {
	// setup builds everything the first op needs (world, matrices, fill,
	// server start) from the generated inputs. It does not run an op.
	setup(env *sliceEnv) error
	clients() int
	// firstOps lists the clients whose ops end set-up: one per op class,
	// in class order, so set-up time does not depend on which class the
	// seed hands client 0.
	firstOps() []int
	// op runs one op for a client and returns its class (an index into
	// classes()).
	op(client int) (class int, err error)
	// classes lists the distinct op shapes: label and 2mnk per op.
	classes() []opClass
	// verify checks the outputs of the ops run so far against the oracle
	// and returns how many results were wrong. corrupt damages one output
	// first (the negative-test hook).
	verify(corrupt bool) (wrong int, err error)
	// counters reports the workload's program-side counters (server and
	// pool statistics); the harness takes deltas over a phase.
	counters() progCounters
	// layers runs the traced run's workload-specific layer analysis.
	// share[i] is class i's share of the measured phase's completed ops.
	layers(m metrics, share []float64)
	close()
}

type opClass struct {
	label string
	flops float64
}

// The six workloads, in the order BENCHMARK.json lists them.
var workloadNames = []string{"mm-block", "mm-fine", "mm-skew", "serve-small", "serve-mixed", "model-replay"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "mm-block":
		// 8 local 512³ GEMMs and 8.4 MB of remote gets: the kernel does
		// ~99 % of the blocking work.
		return &mmWorkload{p: 4, m: 1024, n: 1024, k: 1024,
			partA: slicing.Block2D{}, partB: slicing.Block2D{}, partC: slicing.Block2D{},
			replA: 1, stat: slicing.StationaryC}, nil
	case "mm-fine":
		// 512 steps of 32³: per-step executor overhead dominates.
		fine := slicing.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
		return &mmWorkload{p: 4, m: 256, n: 256, k: 256,
			partA: fine, partB: fine, partC: fine,
			replA: 1, stat: slicing.StationaryC}, nil
	case "mm-skew":
		// The paper's universality case: misaligned, block-cyclic,
		// replicated; moves its bytes by remote accumulate.
		return &mmWorkload{p: 4, m: 512, n: 512, k: 512,
			partA: slicing.ColBlock{},
			partB: slicing.Custom{TileRows: 96, TileCols: 80, ProcRows: 2, ProcCols: 2},
			partC: slicing.Custom{TileRows: 72, TileCols: 104, ProcRows: 2, ProcCols: 2},
			replA: 2, stat: slicing.StationaryA}, nil
	case "serve-small":
		// The committed PR 7-10 serving shape: dispatcher-bound.
		return &serveWorkload{p: 4, nclients: 128, batch: 64, queue: 512,
			tenants: []tenantShape{{16, 16}, {16, 16}, {16, 16}, {16, 16}}}, nil
	case "serve-mixed":
		// Execution-bound through the same server, with size classes that
		// share fused batches.
		return &serveWorkload{p: 4, nclients: 32, batch: 64, queue: 512,
			tenants: []tenantShape{{16, 16}, {16, 16}, {64, 64}, {256, 128}}}, nil
	case "model-replay":
		return &modelWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// sliceEnv is what a slice hands its workload: the seed-derived input
// generator and the world constructor (plain, or the timing decorator on
// a traced slice).
type sliceEnv struct {
	rng      *rand.Rand
	newWorld func(p int) slicing.World
	tr       *tracer // nil on untraced slices
}

// progCounters are cumulative counters read from the program under test.
type progCounters struct {
	poolFresh, poolLive                              int64
	served, rejected, shed, failed, expired, retries int64
	batches, batchedRequests                         int64
	planHits, planMisses                             int64
	queueSeconds                                     float64
	tenantServed                                     []int64
}

// ---- mm-*: one whole distributed multiply per op -----------------------

type mmWorkload struct {
	p, m, n, k          int
	partA, partB, partC slicing.Partition
	replA               int
	stat                slicing.Stationary

	w       slicing.World
	a, b, c *slicing.Matrix
	cfg     slicing.Config
	oracle  oracle
}

func (wl *mmWorkload) clients() int    { return 1 }
func (wl *mmWorkload) firstOps() []int { return []int{0} }

func (wl *mmWorkload) classes() []opClass {
	return []opClass{{fmt.Sprintf("%dx%dx%d", wl.m, wl.n, wl.k), 2 * float64(wl.m) * float64(wl.n) * float64(wl.k)}}
}

func (wl *mmWorkload) setup(env *sliceEnv) error {
	wl.w = env.newWorld(wl.p)
	wl.a = slicing.NewMatrix(wl.w, wl.m, wl.k, wl.partA, wl.replA)
	wl.b = slicing.NewMatrix(wl.w, wl.k, wl.n, wl.partB, 1)
	wl.c = slicing.NewMatrix(wl.w, wl.m, wl.n, wl.partC, 1)
	seedA, seedB := env.rng.Int63(), env.rng.Int63()
	wl.oracle = newOracle(env.rng.Int63())
	wl.w.Run(func(pe slicing.PE) {
		wl.a.FillRandom(pe, seedA)
		wl.b.FillRandom(pe, seedB)
	})
	// The warm path: plans from the world's shared cache, one shared pool.
	wl.cfg = slicing.DefaultConfig()
	wl.cfg.Stationary = wl.stat
	wl.cfg.Plans = slicing.PlansOf(wl.w)
	wl.cfg.Pool = slicing.NewPool()
	return nil
}

func (wl *mmWorkload) op(int) (int, error) {
	return 0, multiplyOnce(wl.w, wl.c, wl.a, wl.b, wl.cfg)
}

// multiplyOnce runs one collective multiply and returns the first rank
// error.
func multiplyOnce(w slicing.World, c, a, b *slicing.Matrix, cfg slicing.Config) error {
	var mu sync.Mutex
	var first error
	w.Run(func(pe slicing.PE) {
		if _, err := slicing.Multiply(pe, c, a, b, cfg); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return first
}

func (wl *mmWorkload) verify(corrupt bool) (int, error) {
	var wrong int
	wl.w.Run(func(pe slicing.PE) {
		if pe.Rank() != 0 {
			return
		}
		a, b, c := wl.a.Gather(pe, 0), wl.b.Gather(pe, 0), wl.c.Gather(pe, 0)
		if corrupt {
			wl.oracle.corrupt(c)
		}
		wrong = wl.oracle.check(c, a, b)
	})
	if live := wl.cfg.Pool.Stats().Live; live != 0 {
		return wrong, fmt.Errorf("pool has %d live elements after the phase", live)
	}
	return wrong, nil
}

func (wl *mmWorkload) counters() progCounters {
	ps, pc := wl.cfg.Pool.Stats(), wl.cfg.Plans.Stats()
	return progCounters{poolFresh: ps.Allocs, poolLive: int64(ps.Live), planHits: pc.Hits, planMisses: pc.Misses}
}

func (wl *mmWorkload) layers(m metrics, share []float64) {
	layersOfProblems(m, wl.w, wl.cfg, []problemSet{{wl.c, wl.a, wl.b}}, share)
}

func (wl *mmWorkload) close() {}

// ---- serve-*: closed-loop clients blocked in Server.Multiply ------------

// tenantShape is one tenant's square GEMM dimension and tile dimension
// (tiles on a 2×2 process grid).
type tenantShape struct{ dim, tile int }

type serveWorkload struct {
	p, nclients, batch, queue int
	tenants                   []tenantShape

	w      slicing.World
	srv    *slicing.Server
	as, bs []*slicing.Matrix // per tenant
	cs     []*slicing.Matrix // per client
	tenant []int             // client -> tenant
	first  []int             // tenant -> its first client
	ran    []bool            // client completed at least one op
	names  []string
	oracle oracle
}

func (wl *serveWorkload) clients() int    { return wl.nclients }
func (wl *serveWorkload) firstOps() []int { return wl.first }

func (wl *serveWorkload) classes() []opClass {
	out := make([]opClass, len(wl.tenants))
	for i, t := range wl.tenants {
		d := float64(t.dim)
		out[i] = opClass{fmt.Sprintf("%d", t.dim), 2 * d * d * d}
	}
	return out
}

func (wl *serveWorkload) setup(env *sliceEnv) error {
	wl.w = env.newWorld(wl.p)
	nt := len(wl.tenants)
	wl.as, wl.bs = make([]*slicing.Matrix, nt), make([]*slicing.Matrix, nt)
	wl.names = make([]string, nt)
	seeds := make([]int64, 2*nt)
	parts := make([]slicing.Partition, nt)
	for t, sh := range wl.tenants {
		parts[t] = slicing.Custom{TileRows: sh.tile, TileCols: sh.tile, ProcRows: 2, ProcCols: 2}
		wl.as[t] = slicing.NewMatrix(wl.w, sh.dim, sh.dim, parts[t], 1)
		wl.bs[t] = slicing.NewMatrix(wl.w, sh.dim, sh.dim, parts[t], 1)
		wl.names[t] = fmt.Sprintf("tenant-%d", t)
		seeds[2*t], seeds[2*t+1] = env.rng.Int63(), env.rng.Int63()
	}
	// Client → tenant assignment is a generated input: every tenant gets
	// an equal share of clients, in seeded order.
	wl.tenant = make([]int, wl.nclients)
	for i := range wl.tenant {
		wl.tenant[i] = i % nt
	}
	env.rng.Shuffle(len(wl.tenant), func(i, j int) { wl.tenant[i], wl.tenant[j] = wl.tenant[j], wl.tenant[i] })
	wl.cs = make([]*slicing.Matrix, wl.nclients)
	wl.ran = make([]bool, wl.nclients)
	wl.first = make([]int, nt)
	for i := len(wl.tenant) - 1; i >= 0; i-- { // downwards: first[t] ends as t's lowest client
		t := wl.tenant[i]
		wl.cs[i] = slicing.NewMatrix(wl.w, wl.tenants[t].dim, wl.tenants[t].dim, parts[t], 1)
		wl.first[t] = i
	}
	wl.oracle = newOracle(env.rng.Int63())
	wl.w.Run(func(pe slicing.PE) {
		for t := range wl.tenants {
			wl.as[t].FillRandom(pe, seeds[2*t])
			wl.bs[t].FillRandom(pe, seeds[2*t+1])
		}
	})
	wl.srv = slicing.NewServer(wl.w, slicing.ServerConfig{Batch: wl.batch, Queue: wl.queue})
	return nil
}

func (wl *serveWorkload) op(client int) (int, error) {
	t := wl.tenant[client]
	_, err := wl.srv.Multiply(context.Background(), wl.names[t], wl.cs[client], wl.as[t], wl.bs[t])
	if err == nil {
		wl.ran[client] = true
	}
	return t, err
}

// verify checks the C of every client that completed an op. The harness
// calls it only between phases, when no request is queued and the idle
// server leaves the world to the oracle's gathers.
func (wl *serveWorkload) verify(corrupt bool) (int, error) {
	var wrong int
	wl.w.Run(func(pe slicing.PE) {
		if pe.Rank() != 0 {
			return
		}
		for t := range wl.tenants {
			a, b := wl.as[t].Gather(pe, 0), wl.bs[t].Gather(pe, 0)
			for i, ct := range wl.tenant {
				if ct != t || !wl.ran[i] {
					continue
				}
				c := wl.cs[i].Gather(pe, 0)
				if corrupt {
					wl.oracle.corrupt(c)
					corrupt = false
				}
				if wl.oracle.check(c, a, b) > 0 {
					wrong++
				}
			}
		}
	})
	return wrong, nil
}

func (wl *serveWorkload) counters() progCounters {
	st := wl.srv.Stats()
	pc := progCounters{
		served: st.Served, rejected: st.Rejected, shed: st.Shed, failed: st.Failed,
		expired: st.Expired, retries: st.Retries,
		batches: st.Batches, batchedRequests: st.BatchedRequests,
		planHits: st.PlanCache.Hits, planMisses: st.PlanCache.Misses,
		tenantServed: make([]int64, len(wl.names)),
	}
	for t, name := range wl.names {
		ts := st.Tenants[name]
		pc.queueSeconds += ts.QueueSeconds
		pc.tenantServed[t] = ts.Served
	}
	return pc
}

func (wl *serveWorkload) layers(m metrics, share []float64) {
	// One problem per tenant (= op class); its first client lends its C.
	sets := make([]problemSet, len(wl.tenants))
	for t, i := range wl.first {
		sets[t] = problemSet{wl.cs[i], wl.as[t], wl.bs[t]}
	}
	cfg := slicing.DefaultConfig()
	cfg.Plans = slicing.PlansOf(wl.w)
	cfg.Pool = slicing.NewPool()
	layersOfProblems(m, wl.w, cfg, sets, share)
	naiveServe(m, wl.w, sets)
}

func (wl *serveWorkload) close() {
	if wl.srv != nil {
		wl.srv.Close()
		wl.srv = nil
	}
}
