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
//     collective activation of the world — one World.Run over the P PEs
//     zeroes every result, barriers once, executes every request's compiled
//     plan back-to-back, and barriers once more. Requests in a batch have
//     distinct result matrices (the dispatcher defers duplicates), so their
//     one-sided accumulates commute and the fused batch needs no
//     per-request synchronization: activation, barrier, and plan-lookup
//     costs amortize across the group's small GEMMs. A request whose plan
//     runs on one rank alone (universal.CompiledPlan.SoloRank) is answered
//     as soon as that rank has retired it, mid-batch; the others at the
//     batch's end. Replies within a batch can therefore come in another
//     order than the batch's.
//   - Deadlines/cancellation: a request whose context is done while still
//     queued is removed and never executes. Once admitted to a batch the
//     collective execution always runs to completion (a collective cannot
//     be safely aborted per request) — the caller then gets ctx.Err() and
//     the late result is discarded, with no effect on cached plans or
//     pooled buffers. A request is late if its context is done when it is
//     answered: mid-batch for a one-rank request, at the batch's end
//     otherwise.
//   - Accounting: per-tenant traffic is measured through the existing
//     runtime.Stats hooks — rank 0 snapshots the world's counters around
//     each fused batch and attributes the delta to the batch's requests in
//     equal shares (requests inside a fused batch are deliberately not
//     separated by barriers, so finer attribution would cost the very
//     synchronization the fusion removes). Every request of a batch,
//     answered early or not, is counted when the batch settles, under one
//     lock at its end; Stats waits for the batch in flight, so a snapshot
//     taken after a reply counts it.
//
// The server owns its world for the duration of serving: no other code may
// call World.Run (or mutate served matrices) while the server is open. A
// caller that does so anyway once all its requests are answered — to read
// results between phases, say — is still safe when the last batch has not
// quite ended: Runs on one world do not overlap, so its Run waits.
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
	// entries — PlanKey carries the exclusion set), and replays the
	// batch's requests that were not answered before the fault. The replay
	// re-zeroes their result matrices first, so per-tenant order and the
	// disjoint-accumulate invariant hold exactly as on the first attempt;
	// an answered request's C is its caller's and is never touched again.
	// Replayed requests count as Served (plus Recovered); only failures
	// the recovery path could not absorb feed the circuit breakers. Healed
	// ranks are re-included before the next batch.
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

// request is one tenant multiply in flight. Requests come from the
// server's free list (getRequest) and go back to it only from Multiply,
// once the dispatcher has sent its one reply or never saw the request.
type request struct {
	ctx    context.Context
	tenant *tenant
	prob   universal.Problem
	stat   universal.Stationary
	err    error
	// done carries the dispatcher's one reply. It has one slot, so the
	// dispatcher never waits for the caller, and it is empty again once the
	// caller has taken the reply, so it is reused with its request.
	done   chan struct{}
	queued time.Time
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
	queue ring
	stats TenantStats
	brk   breaker
}

// ring is a tenant's FIFO of queued requests: a circular buffer whose
// length is a power of two, grown by doubling. Every slot it gives up is
// cleared, so a request that left the queue — served, cancelled or closed —
// is never reachable from it, nor are the caller's context and operands.
type ring struct {
	buf     []*request
	head, n int
}

// slot returns the slot of the i-th queued request, the head at 0.
func (q *ring) slot(i int) **request { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// push appends r at the tail.
func (q *ring) push(r *request) {
	if q.n == len(q.buf) {
		buf := make([]*request, max(8, 2*len(q.buf)))
		for i := range q.n {
			buf[i] = *q.slot(i)
		}
		q.buf, q.head = buf, 0
	}
	*q.slot(q.n) = r
	q.n++
}

// pop removes and returns the head; the queue must not be empty.
func (q *ring) pop() *request {
	r := *q.slot(0)
	*q.slot(0) = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// remove deletes r, keeping the others in order, and reports whether r was
// queued.
func (q *ring) remove(r *request) bool {
	for i := range q.n {
		if *q.slot(i) != r {
			continue
		}
		for j := i; j+1 < q.n; j++ {
			*q.slot(j) = *q.slot(j + 1)
		}
		*q.slot(q.n - 1) = nil
		q.n--
		return true
	}
	return false
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
	// batch not yet answered fails — there is no telling which results
	// the fault poisoned). Shed counts admissions rejected by deadline-aware load
	// shedding or an open circuit breaker. Tripped counts this tenant's
	// breaker trips (including failed half-open probes re-opening it).
	// Recovered counts served requests whose batch hit a fatal fault that
	// failover absorbed (Config.Recover), and that were replayed because
	// they had not been answered before the fault: they also count in
	// Served, and they feed the breaker's success path, not its failure
	// path.
	Failed, Shed, Tripped, Recovered int64
	// Traffic aggregates the runtime.Stats deltas attributed to this
	// tenant's executed requests.
	Traffic rt.Stats
	// QueueSeconds totals time served requests spent from enqueue to their
	// reply.
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

	// settling is held by the dispatcher from a batch's first activation
	// to its settlement. Stats and TenantStats take it before mu, so they
	// wait for the batch in flight: a request answered mid-batch is counted
	// by the time any snapshot taken after its reply returns, and whatever
	// the dispatcher did inside the batch happens before that snapshot.
	settling sync.Mutex

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

	// free is the server's free list of requests, each with its reply
	// channel (see request). A garbage collection may empty it; getRequest
	// then makes new ones.
	free sync.Pool

	// The dispatcher's per-batch state, reused from batch to batch and
	// cleared after each: the admitted batch's slots and the requests
	// nextBatch found cancelled, the roles of the matrices the batch
	// touches (the conflict check), and what the PE body runPE reads — the
	// slot of each plan the activation runs (exec), their problems, plans
	// and config. runPE is executePE and releasePE is release, each bound
	// once, so a batch passes World.Run and Execute func values it does not
	// allocate. Written by the dispatcher, and inside its World.Run only by
	// the PEs: release writes the slot of the request it answers, rank 0
	// every executed slot's traffic share; execErr is guarded by execMu.
	batch     []batchSlot
	dropped   []*request
	roles     roleTable
	exec      []int
	probs     []universal.Problem
	cps       []*universal.CompiledPlan
	execCfg   universal.Config
	runPE     func(pe rt.PE)
	releasePE func(i int)
	execMu    sync.Mutex
	execErr   error

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
		roles:   roleTable{slots: make([]roleSlot, 64)},
	}
	s.runPE, s.releasePE = s.executePE, s.release
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
// Once it returns, C is the caller's again: the server never touches it,
// even while the batch it ran in is still going.
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
	r := s.getRequest()
	r.ctx, r.prob, r.queued = ctx, universal.NewProblem(c, a, b), time.Now()
	if err := s.enqueue(tenantName, r); err != nil {
		s.putRequest(r)
		return 0, err
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	if done := ctx.Done(); done == nil {
		<-r.done // a context that is never done needs no select
	} else {
		select {
		case <-r.done:
		case <-done:
			if s.tryCancel(r) {
				s.putRequest(r)
				return 0, ctx.Err()
			}
			// Already admitted: the collective runs to completion; report
			// the missed deadline.
			<-r.done
			if r.err == nil {
				s.mu.Lock()
				r.tenant.stats.Expired++
				s.expired++
				s.mu.Unlock()
				r.err = ctx.Err()
			}
		}
	}
	stat, err := r.stat, r.err
	s.putRequest(r)
	return stat, err
}

// getRequest takes a request from the free list, or makes one.
func (s *Server) getRequest() *request {
	if r, ok := s.free.Get().(*request); ok {
		return r
	}
	return &request{done: make(chan struct{}, 1)}
}

// putRequest clears r and returns it to the free list. Only r's caller
// returns it, after taking the reply or removing r from its queue, so the
// dispatcher is done with it as well.
func (s *Server) putRequest(r *request) {
	*r = request{done: r.done}
	s.free.Put(r)
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
				queued += qt.queue.n
			}
			if wait := projectedWait(s.batchEWMA, queued, s.cfg.Batch); wait > time.Until(deadline) {
				t.stats.Shed++
				s.shed++
				return ErrShed
			}
		}
	}
	if t.queue.n >= s.cfg.Queue {
		t.stats.Rejected++
		s.rejected++
		return ErrQueueFull
	}
	if s.cfg.Breaker.Threshold > 0 {
		ok, probe := t.brk.admit(s.cfg.Breaker, r.queued)
		if !ok {
			t.stats.Shed++
			s.shed++
			return ErrCircuitOpen
		}
		r.probe = probe
	}
	r.tenant = t
	r.inQueue = true
	t.queue.push(r)
	return nil
}

// tryCancel removes r from its tenant queue if it has not been admitted to
// a batch yet, reporting whether the cancellation took effect.
func (s *Server) tryCancel(r *request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.inQueue || !r.tenant.queue.remove(r) {
		return false
	}
	r.inQueue = false
	r.tenant.stats.Cancelled++
	s.cancelled++
	if r.probe {
		r.tenant.brk.releaseProbe()
	}
	return true
}

// The roles a matrix plays in the batch being formed (Server.roles).
const (
	readInBatch uint8 = 1 << iota
	writtenInBatch
)

// conflicts reports whether r touches the result matrix of any request
// already in the batch (or vice versa). Such requests cannot share a fused
// batch — their updates would interleave without synchronization — so the
// dispatcher defers them to a later batch, preserving per-tenant FIFO
// order. One lookup per operand in the batch's role table, whatever the
// batch size.
func (s *Server) conflicts(r *request) bool {
	t := &s.roles
	return t.slots[t.find(r.prob.C)].role != 0 ||
		t.slots[t.find(r.prob.A)].role&writtenInBatch != 0 ||
		t.slots[t.find(r.prob.B)].role&writtenInBatch != 0
}

// admit adds r to the batch being formed.
func (s *Server) admit(r *request) {
	s.roles.add(r.prob.C, writtenInBatch)
	s.roles.add(r.prob.A, readInBatch)
	s.roles.add(r.prob.B, readInBatch)
	s.batch = append(s.batch, batchSlot{r: r, tenant: r.tenant, queued: r.queued})
}

// batchSlot is the dispatcher's record of one admitted request. A request
// answered early (release) belongs to its caller again from its reply on,
// and its caller may already be reusing it, so what settling the batch
// needs of it is kept here: its tenant and enqueue time, copied at
// admission, and how release answered it.
type batchSlot struct {
	r      *request
	tenant *tenant
	queued time.Time
	// traffic is the request's share of its last activation's traffic,
	// written by rank 0 at the activation's end.
	traffic rt.Stats
	// released is set when release answered the request, at answered;
	// late records that its context was done by then. replayed marks a
	// request a failover replay ran again.
	released, late, replayed bool
	answered                 time.Time
}

// roleTable maps the matrices of the batch being formed to their roles: an
// open-addressed table with linear probing, hashed by the matrix's
// symmetric segment (one per matrix in a world), kept at most half full by
// doubling, and cleared slot by slot.
type roleTable struct {
	slots []roleSlot // power-of-two length
	used  []int      // the occupied slots
}

type roleSlot struct {
	m    *distmat.Matrix
	role uint8 // 0: empty
}

// find returns the index of m's slot, or of the empty slot where m goes.
func (t *roleTable) find(m *distmat.Matrix) int {
	mask := len(t.slots) - 1
	for i := int(uint64(m.Segment())*0x9e3779b97f4a7c15>>32) & mask; ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.role == 0 || sl.m == m {
			return i
		}
	}
}

// add sets role on m.
func (t *roleTable) add(m *distmat.Matrix, role uint8) {
	if 2*(len(t.used)+1) > len(t.slots) {
		old := t.slots
		t.slots, t.used = make([]roleSlot, 2*len(old)), t.used[:0]
		for _, sl := range old {
			if sl.role != 0 {
				t.add(sl.m, sl.role)
			}
		}
	}
	i := t.find(m)
	if t.slots[i].role == 0 {
		t.slots[i].m = m
		t.used = append(t.used, i)
	}
	t.slots[i].role |= role
}

// reset empties the table.
func (t *roleTable) reset() {
	for _, i := range t.used {
		t.slots[i] = roleSlot{}
	}
	t.used = t.used[:0]
}

// nextBatch admits up to cfg.Batch requests, draining tenant queues
// round-robin from the position after the previous batch's starting
// tenant. Requests whose context is already done are completed with
// ctx.Err() instead of admitted; requests that conflict with an already
// admitted one (shared result matrix) stay queued for the next batch. The
// batch is the dispatcher's reused slice, valid until the next call.
func (s *Server) nextBatch() []batchSlot {
	s.mu.Lock()
	s.clearBatch()
	n := len(s.names)
	if n > 0 {
		s.rrPos = (s.rrPos + 1) % n
		// Repeated full ring passes, one request per tenant per pass, until
		// the batch fills or a pass makes no progress.
		for len(s.batch) < s.cfg.Batch {
			took := false
			for scanned := 0; scanned < n && len(s.batch) < s.cfg.Batch; scanned++ {
				t := s.tenants[s.names[(s.rrPos+scanned)%n]]
				if t.queue.n == 0 {
					continue
				}
				r := *t.queue.slot(0)
				if r.ctx.Err() == nil && s.conflicts(r) {
					continue // deferred; head-of-line so tenant order holds
				}
				t.queue.pop()
				r.inQueue = false
				took = true
				if r.ctx.Err() != nil {
					r.err = r.ctx.Err()
					t.stats.Cancelled++
					s.cancelled++
					if r.probe {
						t.brk.releaseProbe()
					}
					s.dropped = append(s.dropped, r)
				} else {
					s.admit(r)
				}
			}
			if !took {
				break
			}
		}
	}
	s.mu.Unlock()
	for _, r := range s.dropped {
		r.done <- struct{}{}
	}
	clear(s.dropped)
	s.dropped = s.dropped[:0]
	return s.batch
}

// clearBatch drops every reference the dispatcher's per-batch state holds,
// so nothing of a finished batch stays reachable from the server.
func (s *Server) clearBatch() {
	clear(s.batch)
	clear(s.probs)
	clear(s.cps)
	s.roles.reset()
	s.batch, s.exec, s.probs, s.cps = s.batch[:0], s.exec[:0], s.probs[:0], s.cps[:0]
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
		for t.queue.n > 0 {
			r := t.queue.pop()
			r.inQueue = false
			if r.probe {
				t.brk.releaseProbe()
			}
			pending = append(pending, r)
		}
	}
	s.mu.Unlock()
	for _, r := range pending {
		r.err = ErrClosed
		r.done <- struct{}{}
	}
}

// lookupPlans resolves the compiled plans of the requests in s.exec on the
// dispatcher thread, once per activation rather than P times inside the
// collective: on a hit the PEs receive ready-to-run compiled plans and
// touch no shared cache state at all. cfg.Exclude keys the lookup — a
// failover replay against a shrunken world resolves different (repair)
// plans from the same cache.
func (s *Server) lookupPlans(cfg universal.Config) {
	s.probs, s.cps = s.probs[:0], s.cps[:0]
	for _, i := range s.exec {
		r := s.batch[i].r
		cp := cfg.Plans.GetOrCompile(r.prob, cfg)
		r.stat = cp.Stationary()
		s.probs = append(s.probs, r.prob)
		s.cps = append(s.cps, cp)
	}
}

// executeBatch runs one fused collective activation of the requests in
// s.exec: every PE zeroes all their results, barriers once, runs every
// request's plan back-to-back, and barriers once more. The batch invariant
// from nextBatch — no request touches another's result matrix — makes the
// unsynchronized interleaving safe: all intervening one-sided updates
// target disjoint matrices and commute. Re-zeroing on entry makes the
// activation idempotent, which is what lets failover replay the batch's
// unanswered requests after a fatal fault without double-counting partial
// accumulates.
func (s *Server) executeBatch(cfg universal.Config) error {
	s.execCfg, s.execErr = cfg, nil
	s.world.Run(s.runPE)
	s.execCfg = universal.Config{}
	return s.execErr
}

// executePE is one PE's part of executeBatch.
func (s *Server) executePE(pe rt.PE) {
	probs, cfg := s.probs, &s.execCfg
	rank0 := pe.Rank() == 0
	var snap rt.Stats
	if rank0 {
		snap = s.world.Stats()
	}
	for _, p := range probs {
		p.C.ZeroLocal(pe)
	}
	pe.Barrier() // all results zeroed before any accumulate can land
	if err := universal.Execute(pe, probs, s.cps, *cfg, s.releasePE); err != nil {
		// Any rank's fatal fault fails the whole fused batch: the requests'
		// accumulates interleave without synchronization, so there is no
		// telling which results the aborted rank had already contributed to.
		s.execMu.Lock()
		if s.execErr == nil {
			s.execErr = err
		}
		s.execMu.Unlock()
	}
	universal.Finish(pe, probs, *cfg) // one barrier for the whole batch
	if rank0 {
		per := divStats(statsDelta(s.world.Stats(), snap), len(probs))
		for _, i := range s.exec {
			s.batch[i].traffic = per
		}
	}
}

// release is Execute's retired report (releasePE). When the activation's
// i-th plan has a solo rank, the report comes from that rank, every
// accumulate into the request's C has landed, and no other rank writes C
// before the activation ends, so the caller is answered now rather than at
// the closing barrier. It takes no lock and allocates nothing: it writes
// the request's slot, which the dispatcher reads once World.Run has
// returned, then sends the one reply. From the send on, the request is its
// caller's, and the server never touches it again.
func (s *Server) release(i int) {
	if _, ok := s.cps[i].SoloRank(); !ok {
		return
	}
	sl := &s.batch[s.exec[i]]
	sl.released, sl.late, sl.answered = true, sl.r.ctx.Err() != nil, time.Now()
	sl.r.done <- struct{}{}
}

// unanswered narrows s.exec to the batch's requests release has not
// answered, the ones a failover replay runs again, marks them replayed, and
// reports whether any is left. A released request's C is its caller's
// again, so the replay must not re-zero it.
func (s *Server) unanswered() bool {
	n := 0
	for _, i := range s.exec {
		if sl := &s.batch[i]; !sl.released {
			sl.replayed = true
			s.exec[n] = i
			n++
		}
	}
	s.exec = s.exec[:n]
	return n > 0
}

// runBatch executes one admitted batch, recovering from fatal PE faults
// when Config.Recover is set: a batch that dies with ErrPEFailed is
// replayed against the surviving world — membership re-synced, plans
// recompiled with the crashed ranks excluded, every result re-zeroed by
// executeBatch — until it lands or no repair is possible. A replay runs
// only the requests release has not answered already. Because nextBatch
// admitted these requests in tenant FIFO order and the replay keeps the
// rest of the batch intact, recovery preserves per-tenant order; a
// replayed request that is served counts in Recovered too, and never
// feeds the circuit breakers. The batch's accounting is settled from its
// slots under one lock at the end, and the requests release did not answer
// are answered then.
func (s *Server) runBatch(batch []batchSlot) {
	s.settling.Lock()
	defer s.settling.Unlock()
	start := time.Now()
	cfg := s.cfg.Exec
	if s.member != nil {
		// Pick up heals (and crashes detected since the last batch) before
		// compiling: a revived rank rejoins the plan here.
		s.member.Sync(s.world)
		cfg.Exclude = s.member.Excluded()
	}
	for i := range batch {
		s.exec = append(s.exec, i)
	}
	var replans int64
	var replanMs []float64
	s.lookupPlans(cfg)
	execErr := s.executeBatch(cfg)
	if execErr != nil && s.member != nil && errors.Is(execErr, rt.ErrPEFailed) && s.unanswered() {
		// Failover: each attempt retires at least one newly crashed rank,
		// so NumPE attempts bound the loop even under a rolling crash storm.
		for attempt := 0; attempt < s.world.NumPE(); attempt++ {
			t0 := time.Now()
			died, _ := s.member.Sync(s.world)
			if died == 0 || s.member.NumAlive() == 0 {
				break // nothing new to exclude, or nobody left to run on
			}
			cfg.Exclude = s.member.Excluded()
			s.lookupPlans(cfg)
			replans++
			replanMs = append(replanMs, time.Since(t0).Seconds()*1e3)
			execErr = s.executeBatch(cfg)
			if execErr == nil {
				break
			}
			if !errors.Is(execErr, rt.ErrPEFailed) || !s.unanswered() {
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
	for i := range batch {
		sl := &batch[i]
		t := sl.tenant
		if !sl.released && execErr != nil {
			sl.r.err = execErr
			t.stats.Failed++
			s.failed++
			if breakerOn && t.brk.failure(s.cfg.Breaker, now) {
				t.stats.Tripped++
				s.tripped++
			}
			continue
		}
		if sl.replayed {
			t.stats.Recovered++
			s.recovered++
		}
		done, late := sl.answered, sl.late
		if !sl.released {
			done, late = now, sl.r.ctx.Err() != nil
		}
		t.stats.Served++
		addStats(&t.stats.Traffic, sl.traffic)
		t.stats.QueueSeconds += done.Sub(sl.queued).Seconds()
		s.served++
		if breakerOn {
			// A missed deadline counts against the breaker like a fatal
			// fault: the tenant keeps submitting work the server cannot
			// land in time.
			if late {
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
	for i := range batch {
		if !batch[i].released {
			batch[i].r.done <- struct{}{}
		}
	}
	s.clearBatch()
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
// traffic and the plan-cache counters. It waits for the batch in flight, if
// any, to settle, so every request answered before the call is counted.
func (s *Server) Stats() Stats {
	s.settling.Lock()
	defer s.settling.Unlock()
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
	s.settling.Lock()
	defer s.settling.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return TenantStats{}, false
	}
	return t.stats, true
}
