package universal

import (
	"sync/atomic"
	"time"

	rt "slicing/internal/runtime"
)

// RetryConfig is the executor's recovery budget for one-sided operation
// faults (docs/RESILIENCE.md). It only matters on fault-capable backends
// (the chaos decorator; a future real-network backend): on backends whose
// ops cannot fail the retry sites cost one open-coded deferred recover
// per op and nothing else.
type RetryConfig struct {
	// Attempts is the total tries per one-sided op (first attempt
	// included). <= 0 selects the default of 3. Transient failures past
	// the budget escalate to fatal; fatal failures never retry.
	Attempts int
	// BaseDelay is the first retry's backoff; successive retries double
	// it, each jittered uniformly in [0.5, 1.5)× so lockstep PEs don't
	// reissue in phase. <= 0 selects the default of 50µs.
	BaseDelay time.Duration
	// OpTimeout bounds a single one-sided op on backends with the
	// OpDeadliner capability; an op stalled past it fails with
	// ErrOpTimeout (fatal — a hung op that ate its deadline is assumed
	// wedged). Zero leaves ops unbounded.
	OpTimeout time.Duration
	// Retries, when non-nil, is incremented once per retry actually
	// performed — the serving layer's fault accounting hook. A pointer so
	// every copy of a Config shares one counter.
	Retries *atomic.Int64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Microsecond
	}
	return c
}

// tryOp runs one one-sided op, converting a *runtime.Fault unwind into an
// error. The deferred CatchFault in a named function compiles to an
// open-coded defer, so the no-fault path allocates nothing.
func tryOp(op func()) (err error) {
	defer rt.CatchFault(&err)
	op()
	return nil
}

// retrier is one goroutine's retry state: the budget plus a private
// xorshift64 stream for backoff jitter. Each feeder and each crew helper
// owns its own, so retries never contend on shared PRNG state.
type retrier struct {
	attempts int
	base     time.Duration
	counter  *atomic.Int64
	rng      uint64
}

func newRetrier(cfg RetryConfig, seed uint64) retrier {
	return retrier{attempts: cfg.Attempts, base: cfg.BaseDelay, counter: cfg.Retries, rng: seed*0x9e3779b97f4a7c15 | 1}
}

// do runs op under the retry budget: transient failures back off and
// reissue, fatal failures and exhausted budgets return the error. op must
// be idempotent-on-failure, which one-sided ops are: a failed op is
// defined to have moved no data.
func (r *retrier) do(op func()) error {
	for attempt := 1; ; attempt++ {
		err := tryOp(op)
		if err == nil || rt.IsFatal(err) || attempt >= r.attempts {
			return err
		}
		if r.counter != nil {
			r.counter.Add(1)
		}
		r.backoff(attempt)
	}
}

// backoff sleeps the attempt's jittered exponential delay.
func (r *retrier) backoff(attempt int) {
	if r.base <= 0 {
		return
	}
	d := r.base << uint(attempt-1)
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	jitter := 0.5 + float64(r.rng>>11)/float64(1<<53)
	time.Sleep(time.Duration(float64(d) * jitter))
}

// errBox is the crew's first-error-wins abort flag: the feeder and every
// worker publish fatal errors into it and poll it before starting new
// work, so one rank's failed step drains the crew cleanly instead of
// deadlocking it. The no-error path is a single atomic load; the error
// path allocates once.
type errBox struct {
	p atomic.Pointer[boxedErr]
}

type boxedErr struct{ err error }

func (b *errBox) set(err error) {
	if err == nil {
		return
	}
	b.p.CompareAndSwap(nil, &boxedErr{err: err})
}

func (b *errBox) err() error {
	if w := b.p.Load(); w != nil {
		return w.err
	}
	return nil
}
