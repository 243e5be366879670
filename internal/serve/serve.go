// Package serve is the multiply-as-a-service layer: a long-lived Server
// that multiplexes concurrent multiply requests from many tenants over one
// PE world. It is the serving-side counterpart of the compiled-plan cache
// in internal/universal — plans are compiled once per distinct problem
// structure and re-executed for every request that matches, so the steady
// state of a serving workload runs zero slicing work per request.
//
// Architecture (docs/SERVING.md is the prose contract):
//
//   - Admission: each tenant has a bounded FIFO queue (Config.Queue).
//     Multiply enqueues or fails fast with ErrQueueFull — backpressure is
//     explicit, never unbounded buffering.
//   - Fairness: the dispatcher drains tenant queues round-robin (one
//     request per tenant per turn, rotating the starting tenant), so a
//     flooding tenant cannot starve the others.
//   - Batching: up to Config.Batch admitted requests are fused into one
//     collective activation of the world — one World.Run spawning P PEs
//     zeroes every result, barriers once, executes every request's compiled
//     plan back-to-back, and barriers once more. Requests in a batch have
//     distinct result matrices (the dispatcher defers duplicates), so their
//     one-sided accumulates commute and the fused batch needs no
//     per-request synchronization: activation, barrier, and plan-lookup
//     costs amortize across the group's small GEMMs.
//   - Deadlines/cancellation: a request whose context is done while still
//     queued is removed and never executes. Once admitted to a batch the
//     collective execution always runs to completion (a collective cannot
//     be safely aborted per request) — the caller then gets ctx.Err() and
//     the late result is discarded, with no effect on cached plans or
//     pooled buffers.
//   - Accounting: per-tenant traffic is measured through the existing
//     runtime.Stats hooks — rank 0 snapshots the world's counters around
//     each fused batch and attributes the delta to the batch's requests in
//     equal shares (requests inside a fused batch are deliberately not
//     separated by barriers, so finer attribution would cost the very
//     synchronization the fusion removes).
//
// The server owns its world for the duration of serving: no other code may
// call World.Run (or mutate served matrices) while the server is open.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/universal"
)

// Errors returned by Multiply.
var (
	// ErrQueueFull reports that the tenant's admission queue is at
	// capacity; the caller should back off and retry.
	ErrQueueFull = errors.New("serve: tenant admission queue full")
	// ErrClosed reports that the server is closed.
	ErrClosed = errors.New("serve: server closed")
)

// Config tunes a Server.
type Config struct {
	// Queue bounds each tenant's admission queue (default 64). A full
	// queue rejects with ErrQueueFull rather than buffering unboundedly.
	Queue int
	// Batch is the maximum number of requests fused into one collective
	// world activation (default 8). Within a batch, requests share the
	// activation's two barriers instead of paying their own.
	Batch int
	// Exec is the execution config template for every request. Its Plans
	// and Pool fields are managed by the server: a nil Plans is wired to
	// the world's shared plan cache (universal.PlansOf); a nil Pool gets
	// one shared pool for the server's lifetime.
	Exec universal.Config
	// Breaker tunes the per-tenant circuit breakers (docs/RESILIENCE.md):
	// a tenant whose requests keep failing fatally or missing their
	// deadlines is fenced off with ErrCircuitOpen until a half-open probe
	// succeeds, so a poisoned workload cannot keep burning batch slots.
	// Threshold < 0 disables them.
	Breaker BreakerConfig
	// Shed enables deadline-aware load shedding: a request whose context
	// deadline is closer than the projected queue wait (queue depth in
	// batches × the EWMA batch duration) is rejected at admission with
	// ErrShed instead of executing past its deadline.
	Shed bool
	// PlanCacheFile, when non-empty, persists the compiled-plan cache
	// across processes: the server warm-starts by loading the file at
	// construction (a missing file is fine — first run), and saves the
	// cache back on Close. Load/save outcomes are
	// reported by PlanCachePersistence, not surfaced as serving errors: a
	// cold start is a performance event, never a correctness one.
	PlanCacheFile string
	// Recover enables failover in the serving loop: when a fused batch
	// dies with a fatal PE fault, the dispatcher syncs its membership view
	// against the world's health reporter, recompiles the batch's plans
	// with the crashed ranks excluded (repair plans are ordinary plan-cache
	// entries — PlanKey carries the exclusion set), and replays the whole
	// batch. The replay re-zeroes every result matrix first, so per-tenant
	// order and the disjoint-accumulate invariant hold exactly as on the
	// first attempt. Recovered batches count as Served (plus Recovered);
	// only failures the recovery path could not absorb feed the circuit
	// breakers. Healed ranks are re-included before the next batch.
	Recover bool
}

func (cfg Config) withDefaults(w rt.World) Config {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	cfg.Breaker = cfg.Breaker.withDefaults()
	if cfg.Exec.Retry.Retries == nil {
		// The server owns a retry counter so Stats can report the world's
		// transparently-recovered faults (every Config copy shares it).
		cfg.Exec.Retry.Retries = new(atomic.Int64)
	}
	if cfg.Exec.Plans == nil {
		cfg.Exec.Plans = universal.PlansOf(w)
	}
	if cfg.Exec.Pool == nil {
		// One pool for the server's lifetime, shared by all PEs (Pool is
		// mutex-protected): steady-state serving recycles buffers across
		// requests instead of allocating a fresh pool per call.
		cfg.Exec.Pool = gpusim.NewPool()
	}
	return cfg
}

// request is one tenant multiply in flight.
type request struct {
	ctx     context.Context
	tenant  *tenant
	prob    universal.Problem
	stat    universal.Stationary
	traffic rt.Stats
	err     error
	done    chan struct{}
	queued  time.Time
	// inQueue is true while the request sits in its tenant's queue and can
	// still be cancelled; guarded by the server mutex.
	inQueue bool
	// probe marks the tenant breaker's half-open probe request; guarded by
	// the server mutex.
	probe bool
}

// tenant is one traffic source: a bounded FIFO of pending requests plus
// accounting and its circuit breaker.
type tenant struct {
	name  string
	queue []*request
	stats TenantStats
	brk   breaker
}

// TenantStats is one tenant's accounting snapshot.
type TenantStats struct {
	// Served counts requests executed to completion (including ones whose
	// deadline expired mid-execution; those also count in Expired).
	// Rejected counts ErrQueueFull admissions, Cancelled requests removed
	// from the queue before execution, Expired requests whose deadline
	// passed before admission or that completed after their context was
	// done.
	Served, Rejected, Cancelled, Expired int64
	// Failed counts requests whose fused batch hit a fatal one-sided
	// fault the recovery path could not absorb (every request of the
	// batch fails — there is no telling which results the fault
	// poisoned). Shed counts admissions rejected by deadline-aware load
	// shedding or an open circuit breaker. Tripped counts this tenant's
	// breaker trips (including failed half-open probes re-opening it).
	// Recovered counts served requests whose batch hit a fatal fault that
	// failover absorbed (Config.Recover): they also count in Served, and
	// they feed the breaker's success path, not its failure path.
	Failed, Shed, Tripped, Recovered int64
	// Traffic aggregates the runtime.Stats deltas attributed to this
	// tenant's executed requests.
	Traffic rt.Stats
	// QueueSeconds totals time served requests spent from enqueue to
	// completion.
	QueueSeconds float64
}

// Stats is a server-wide accounting snapshot.
type Stats struct {
	Served, Rejected, Cancelled, Expired int64
	// Failed, Shed, Tripped aggregate the per-tenant fault accounting
	// (see TenantStats); Retries counts one-sided op retries the executor
	// performed transparently on the server's behalf — recovered faults
	// that never surfaced to any caller.
	Failed, Shed, Tripped, Retries int64
	// Recovered aggregates per-tenant recovered requests (Config.Recover);
	// Replans counts plan recompilations the failover path performed
	// against a shrunken world, and ReplanMs their individual durations in
	// milliseconds (lookup-through-recompile, per failover attempt) —
	// the recovery cost axis of the availability story.
	Recovered, Replans int64
	ReplanMs           []float64
	// Batches counts collective activations; BatchedRequests their total
	// request count (BatchedRequests/Batches is the realized batch size).
	Batches, BatchedRequests int64
	// PlanCache snapshots the compiled-plan cache.
	PlanCache universal.PlanCacheStats
	// Tenants holds per-tenant snapshots keyed by tenant name.
	Tenants map[string]TenantStats
}

// Server multiplexes multiply requests from many tenants over one world.
// Create with NewServer, submit with Multiply (any goroutine), stop with
// Close.
type Server struct {
	world rt.World
	cfg   Config

	mu      sync.Mutex
	tenants map[string]*tenant
	names   []string // sorted tenant names, the round-robin ring
	rrPos   int
	closed  bool

	served, rejected, cancelled, expired int64
	failed, shed, tripped                int64
	recovered, replans                   int64
	replanMs                             []float64
	batches, batchedRequests             int64

	// member is the failover path's health view of the world's ranks,
	// non-nil only under Config.Recover; the dispatcher syncs it against
	// the world's HealthReporter around every batch. Dispatcher-only.
	member *rt.Membership
	// batchEWMA is the exponentially-weighted average batch duration in
	// seconds, the load-shedding wait model; guarded by mu.
	batchEWMA float64

	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	// Plan-cache persistence outcome (see Config.PlanCacheFile): how many
	// plans the warm start loaded, and the first load/save error; guarded
	// by mu after construction.
	warmLoaded int
	persistErr error
}

// NewServer creates a server over w and starts its dispatcher. The server
// assumes exclusive use of w until Close.
func NewServer(w rt.World, cfg Config) *Server {
	s := newServer(w, cfg)
	s.Start()
	return s
}

// newServer builds a server without starting the dispatcher; tests use it
// to stage deterministic queue states before serving begins.
func newServer(w rt.World, cfg Config) *Server {
	s := &Server{
		world:   w,
		cfg:     cfg.withDefaults(w),
		tenants: make(map[string]*tenant),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	if s.cfg.PlanCacheFile != "" {
		s.warmLoaded, s.persistErr = s.cfg.Exec.Plans.LoadFile(s.cfg.PlanCacheFile)
	}
	if s.cfg.Recover {
		s.member = rt.NewMembership(w.NumPE())
	}
	return s
}

// Start launches the dispatcher. It is called by NewServer; calling it
// twice is a bug.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.loop()
}

// Close stops the server: queued requests fail with ErrClosed, the current
// batch (if any) completes, and the dispatcher exits. Subsequent Multiply
// calls fail with ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	if s.cfg.PlanCacheFile != "" {
		if err := s.cfg.Exec.Plans.SaveFile(s.cfg.PlanCacheFile); err != nil {
			s.mu.Lock()
			if s.persistErr == nil {
				s.persistErr = err
			}
			s.mu.Unlock()
		}
	}
}

// PlanCachePersistence reports the plan-cache file outcome: how many plans
// the warm start loaded at construction, and the first load or save error
// (nil when persistence is disabled or everything worked).
func (s *Server) PlanCachePersistence() (loaded int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warmLoaded, s.persistErr
}

// validate checks a request's operands against the server's world before
// Problem construction (which panics on contract violations — a serving
// surface must return errors instead).
func (s *Server) validate(c, a, b *distmat.Matrix) error {
	if c == nil || a == nil || b == nil {
		return errors.New("serve: nil operand matrix")
	}
	if a.World() != s.world || b.World() != s.world || c.World() != s.world {
		return errors.New("serve: operands must live in the server's world")
	}
	if a.Cols() != b.Rows() || c.Rows() != a.Rows() || c.Cols() != b.Cols() {
		return fmt.Errorf("serve: shape mismatch C %dx%d = A %dx%d * B %dx%d",
			c.Rows(), c.Cols(), a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	return nil
}

// Multiply submits C = A·B on behalf of tenantName and blocks until the
// result has been computed, the context is done, or the server closes.
// Safe for any number of concurrent callers. The three matrices must live
// in the server's world; C is written in place. When the context is
// already done at admission the request fast-fails with ctx.Err() (and
// counts in the tenant's Expired) without ever occupying a queue slot;
// when it expires while queued, the request is cancelled without
// executing; when it expires after execution has started, the computation
// completes (C is written) but ctx.Err() is returned to signal the missed
// deadline. Under degradation, admission can also fail with ErrShed
// (projected wait past the deadline) or ErrCircuitOpen (the tenant's
// recent requests kept failing).
func (s *Server) Multiply(ctx context.Context, tenantName string, c, a, b *distmat.Matrix) (universal.Stationary, error) {
	if err := s.validate(c, a, b); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		s.countExpired(tenantName)
		return 0, err
	}
	r := &request{
		ctx:    ctx,
		prob:   universal.NewProblem(c, a, b),
		done:   make(chan struct{}),
		queued: time.Now(),
	}
	if err := s.enqueue(tenantName, r); err != nil {
		return 0, err
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	select {
	case <-r.done:
		return r.stat, r.err
	case <-ctx.Done():
		if s.tryCancel(r) {
			return 0, ctx.Err()
		}
		// Already admitted: the collective runs to completion; report the
		// missed deadline.
		<-r.done
		if r.err != nil {
			return r.stat, r.err
		}
		s.mu.Lock()
		r.tenant.stats.Expired++
		s.expired++
		s.mu.Unlock()
		return r.stat, ctx.Err()
	}
}

// tenantLocked returns tenantName's record, creating it on first contact.
// Callers hold s.mu.
func (s *Server) tenantLocked(tenantName string) *tenant {
	t, ok := s.tenants[tenantName]
	if !ok {
		t = &tenant{name: tenantName}
		s.tenants[tenantName] = t
		s.names = append(s.names, tenantName)
		sort.Strings(s.names)
	}
	return t
}

// countExpired attributes a request that was already past its deadline at
// admission: it never occupies a queue slot, but the miss still shows in
// the tenant's accounting.
func (s *Server) countExpired(tenantName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	t := s.tenantLocked(tenantName)
	t.stats.Expired++
	s.expired++
}

// enqueue admits r into tenantName's bounded queue, applying the
// admission-control ladder: deadline-aware shedding first (don't queue
// work that cannot finish in time), then the queue bound, then the
// tenant's circuit breaker (last, so rejections on the earlier rungs
// never consume the half-open probe slot).
func (s *Server) enqueue(tenantName string, r *request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := s.tenantLocked(tenantName)
	if s.cfg.Shed {
		if deadline, ok := r.ctx.Deadline(); ok {
			queued := 0
			for _, qt := range s.tenants {
				queued += len(qt.queue)
			}
			if wait := projectedWait(s.batchEWMA, queued, s.cfg.Batch); wait > time.Until(deadline) {
				t.stats.Shed++
				s.shed++
				return ErrShed
			}
		}
	}
	if len(t.queue) >= s.cfg.Queue {
		t.stats.Rejected++
		s.rejected++
		return ErrQueueFull
	}
	if s.cfg.Breaker.Threshold > 0 {
		ok, probe := t.brk.admit(s.cfg.Breaker, time.Now())
		if !ok {
			t.stats.Shed++
			s.shed++
			return ErrCircuitOpen
		}
		r.probe = probe
	}
	r.tenant = t
	r.inQueue = true
	t.queue = append(t.queue, r)
	return nil
}

// tryCancel removes r from its tenant queue if it has not been admitted to
// a batch yet, reporting whether the cancellation took effect.
func (s *Server) tryCancel(r *request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.inQueue {
		return false
	}
	q := r.tenant.queue
	for i, qr := range q {
		if qr == r {
			r.tenant.queue = append(q[:i], q[i+1:]...)
			r.inQueue = false
			r.tenant.stats.Cancelled++
			s.cancelled++
			if r.probe {
				r.tenant.brk.releaseProbe()
			}
			return true
		}
	}
	return false
}

// conflicts reports whether r touches the result matrix of any request
// already in batch (or vice versa). Such requests cannot share a fused
// batch — their updates would interleave without synchronization — so the
// dispatcher defers them to a later batch, preserving per-tenant FIFO
// order.
func conflicts(batch []*request, r *request) bool {
	for _, q := range batch {
		if r.prob.C == q.prob.C || r.prob.C == q.prob.A || r.prob.C == q.prob.B ||
			r.prob.A == q.prob.C || r.prob.B == q.prob.C {
			return true
		}
	}
	return false
}

// nextBatch admits up to cfg.Batch requests, draining tenant queues
// round-robin from the position after the previous batch's starting
// tenant. Requests whose context is already done are completed with
// ctx.Err() instead of admitted; requests that conflict with an already
// admitted one (shared result matrix) stay queued for the next batch.
func (s *Server) nextBatch() []*request {
	s.mu.Lock()
	var batch []*request
	var cancelled []*request
	n := len(s.names)
	if n > 0 {
		s.rrPos = (s.rrPos + 1) % n
		// Repeated full ring passes, one request per tenant per pass, until
		// the batch fills or a pass makes no progress.
		for len(batch) < s.cfg.Batch {
			took := false
			for scanned := 0; scanned < n && len(batch) < s.cfg.Batch; scanned++ {
				t := s.tenants[s.names[(s.rrPos+scanned)%n]]
				if len(t.queue) == 0 {
					continue
				}
				r := t.queue[0]
				if r.ctx.Err() == nil && conflicts(batch, r) {
					continue // deferred; head-of-line so tenant order holds
				}
				t.queue = t.queue[1:]
				r.inQueue = false
				took = true
				if r.ctx.Err() != nil {
					r.err = r.ctx.Err()
					t.stats.Cancelled++
					s.cancelled++
					if r.probe {
						t.brk.releaseProbe()
					}
					cancelled = append(cancelled, r)
				} else {
					batch = append(batch, r)
				}
			}
			if !took {
				break
			}
		}
	}
	s.mu.Unlock()
	for _, r := range cancelled {
		close(r.done)
	}
	return batch
}

// loop is the dispatcher: it turns queued requests into executed batches
// until Close.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			s.drainClosed()
			return
		case <-s.wake:
		}
		for {
			select {
			case <-s.quit:
				s.drainClosed()
				return
			default:
			}
			batch := s.nextBatch()
			if len(batch) == 0 {
				break
			}
			s.runBatch(batch)
		}
	}
}

// drainClosed fails every queued request with ErrClosed.
func (s *Server) drainClosed() {
	s.mu.Lock()
	var pending []*request
	for _, t := range s.tenants {
		for _, r := range t.queue {
			r.inQueue = false
			if r.probe {
				t.brk.releaseProbe()
			}
			pending = append(pending, r)
		}
		t.queue = nil
	}
	s.mu.Unlock()
	for _, r := range pending {
		r.err = ErrClosed
		close(r.done)
	}
}

// lookupPlans resolves the batch's compiled plans on the dispatcher
// thread, once per batch rather than P times inside the collective: on a
// hit the PEs receive ready-to-run compiled plans and touch no shared
// cache state at all. cfg.Exclude keys the lookup — a failover replay
// against a shrunken world resolves different (repair) plans from the
// same cache.
func (s *Server) lookupPlans(batch []*request, cfg universal.Config) ([]universal.Problem, []*universal.CompiledPlan) {
	probs := make([]universal.Problem, len(batch))
	cps := make([]*universal.CompiledPlan, len(batch))
	for i, r := range batch {
		probs[i] = r.prob
		cps[i] = cfg.Plans.GetOrCompile(r.prob, cfg)
		r.stat = cps[i].Stationary()
	}
	return probs, cps
}

// executeBatch runs one fused collective activation of the batch: every
// PE zeroes all results, barriers once, runs every request's plan
// back-to-back, and barriers once more. The batch invariant from
// nextBatch — no request touches another's result matrix — makes the
// unsynchronized interleaving safe: all intervening one-sided updates
// target disjoint matrices and commute. Re-zeroing on entry makes the
// activation idempotent, which is what lets failover replay a whole
// batch after a fatal fault without double-counting partial accumulates.
func (s *Server) executeBatch(batch []*request, probs []universal.Problem, cps []*universal.CompiledPlan, cfg universal.Config) error {
	// Any rank's fatal fault fails the whole fused batch: the requests'
	// accumulates interleave without synchronization, so there is no
	// telling which results the aborted rank had already contributed to.
	var execMu sync.Mutex
	var execErr error
	setErr := func(err error) {
		if err == nil {
			return
		}
		execMu.Lock()
		if execErr == nil {
			execErr = err
		}
		execMu.Unlock()
	}
	s.world.Run(func(pe rt.PE) {
		rank0 := pe.Rank() == 0
		var snap rt.Stats
		if rank0 {
			snap = s.world.Stats()
		}
		for _, r := range batch {
			r.prob.C.ZeroLocal(pe)
		}
		pe.Barrier() // all results zeroed before any accumulate can land
		setErr(universal.Execute(pe, probs, cps, cfg))
		universal.Finish(pe, probs, cfg) // one barrier for the whole batch
		if rank0 {
			per := divStats(statsDelta(s.world.Stats(), snap), len(batch))
			for _, r := range batch {
				r.traffic = per
			}
		}
	})
	return execErr
}

// runBatch executes one admitted batch, recovering from fatal PE faults
// when Config.Recover is set: a batch that dies with ErrPEFailed is
// replayed in full against the surviving world — membership re-synced,
// plans recompiled with the crashed ranks excluded, every result
// re-zeroed by executeBatch — until it lands or no repair is possible.
// Because nextBatch admitted these requests in tenant FIFO order and the
// replay keeps the batch intact, recovery preserves per-tenant order; a
// recovered batch is accounted as served (plus Recovered) and never
// feeds the circuit breakers.
func (s *Server) runBatch(batch []*request) {
	start := time.Now()
	cfg := s.cfg.Exec
	if s.member != nil {
		// Pick up heals (and crashes detected since the last batch) before
		// compiling: a revived rank rejoins the plan here.
		s.member.Sync(s.world)
		cfg.Exclude = s.member.Excluded()
	}
	var replans int64
	var replanMs []float64
	recovered := false
	probs, cps := s.lookupPlans(batch, cfg)
	execErr := s.executeBatch(batch, probs, cps, cfg)
	if execErr != nil && s.member != nil && errors.Is(execErr, rt.ErrPEFailed) {
		// Failover: each attempt retires at least one newly crashed rank,
		// so NumPE attempts bound the loop even under a rolling crash storm.
		for attempt := 0; attempt < s.world.NumPE(); attempt++ {
			t0 := time.Now()
			died, _ := s.member.Sync(s.world)
			if died == 0 || s.member.NumAlive() == 0 {
				break // nothing new to exclude, or nobody left to run on
			}
			cfg.Exclude = s.member.Excluded()
			probs, cps = s.lookupPlans(batch, cfg)
			replans++
			replanMs = append(replanMs, time.Since(t0).Seconds()*1e3)
			execErr = s.executeBatch(batch, probs, cps, cfg)
			if execErr == nil {
				recovered = true
				break
			}
			if !errors.Is(execErr, rt.ErrPEFailed) {
				break
			}
		}
	}
	now := time.Now()
	s.mu.Lock()
	if s.batchEWMA == 0 {
		s.batchEWMA = now.Sub(start).Seconds()
	} else {
		s.batchEWMA += ewmaAlpha * (now.Sub(start).Seconds() - s.batchEWMA)
	}
	s.replans += replans
	s.replanMs = append(s.replanMs, replanMs...)
	breakerOn := s.cfg.Breaker.Threshold > 0
	for _, r := range batch {
		t := r.tenant
		if execErr != nil {
			r.err = execErr
			t.stats.Failed++
			s.failed++
			if breakerOn && t.brk.failure(s.cfg.Breaker, now) {
				t.stats.Tripped++
				s.tripped++
			}
			continue
		}
		if recovered {
			t.stats.Recovered++
			s.recovered++
		}
		t.stats.Served++
		addStats(&t.stats.Traffic, r.traffic)
		t.stats.QueueSeconds += now.Sub(r.queued).Seconds()
		s.served++
		if breakerOn {
			// A missed deadline counts against the breaker like a fatal
			// fault: the tenant keeps submitting work the server cannot
			// land in time.
			if r.ctx.Err() != nil {
				if t.brk.failure(s.cfg.Breaker, now) {
					t.stats.Tripped++
					s.tripped++
				}
			} else {
				t.brk.success()
			}
		}
	}
	s.batches++
	s.batchedRequests += int64(len(batch))
	s.mu.Unlock()
	for _, r := range batch {
		close(r.done)
	}
}

func statsDelta(cur, prev rt.Stats) rt.Stats {
	return rt.Stats{
		RemoteGetBytes:   cur.RemoteGetBytes - prev.RemoteGetBytes,
		RemotePutBytes:   cur.RemotePutBytes - prev.RemotePutBytes,
		RemoteAccumBytes: cur.RemoteAccumBytes - prev.RemoteAccumBytes,
		LocalGetBytes:    cur.LocalGetBytes - prev.LocalGetBytes,
		LocalPutBytes:    cur.LocalPutBytes - prev.LocalPutBytes,
		LocalAccumBytes:  cur.LocalAccumBytes - prev.LocalAccumBytes,
		RemoteOps:        cur.RemoteOps - prev.RemoteOps,
		LocalOps:         cur.LocalOps - prev.LocalOps,
	}
}

// divStats splits a fused batch's traffic delta into equal per-request
// shares (integer division; the remainder stays unattributed).
func divStats(d rt.Stats, n int) rt.Stats {
	k := int64(n)
	if k <= 1 {
		return d
	}
	return rt.Stats{
		RemoteGetBytes:   d.RemoteGetBytes / k,
		RemotePutBytes:   d.RemotePutBytes / k,
		RemoteAccumBytes: d.RemoteAccumBytes / k,
		LocalGetBytes:    d.LocalGetBytes / k,
		LocalPutBytes:    d.LocalPutBytes / k,
		LocalAccumBytes:  d.LocalAccumBytes / k,
		RemoteOps:        d.RemoteOps / k,
		LocalOps:         d.LocalOps / k,
	}
}

func addStats(dst *rt.Stats, d rt.Stats) {
	dst.RemoteGetBytes += d.RemoteGetBytes
	dst.RemotePutBytes += d.RemotePutBytes
	dst.RemoteAccumBytes += d.RemoteAccumBytes
	dst.LocalGetBytes += d.LocalGetBytes
	dst.LocalPutBytes += d.LocalPutBytes
	dst.LocalAccumBytes += d.LocalAccumBytes
	dst.RemoteOps += d.RemoteOps
	dst.LocalOps += d.LocalOps
}

// Stats returns a server-wide accounting snapshot, including per-tenant
// traffic and the plan-cache counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	out := Stats{
		Served:          s.served,
		Rejected:        s.rejected,
		Cancelled:       s.cancelled,
		Expired:         s.expired,
		Failed:          s.failed,
		Shed:            s.shed,
		Tripped:         s.tripped,
		Retries:         s.cfg.Exec.Retry.Retries.Load(),
		Recovered:       s.recovered,
		Replans:         s.replans,
		ReplanMs:        append([]float64(nil), s.replanMs...),
		Batches:         s.batches,
		BatchedRequests: s.batchedRequests,
		Tenants:         make(map[string]TenantStats, len(s.tenants)),
	}
	for name, t := range s.tenants {
		out.Tenants[name] = t.stats
	}
	s.mu.Unlock()
	out.PlanCache = s.cfg.Exec.Plans.Stats()
	return out
}

// TenantStats returns one tenant's snapshot; ok is false for tenants that
// have never submitted.
func (s *Server) TenantStats(name string) (TenantStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return TenantStats{}, false
	}
	return t.stats, true
}

// QueuedLen returns the number of requests currently queued across all
// tenants (diagnostic).
func (s *Server) QueuedLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tenants {
		n += len(t.queue)
	}
	return n
}
