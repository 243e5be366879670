package universal

import "sync/atomic"

// Checkpoint is the step-granular progress record of one plan execution:
// one flag per plan step, set by the chain runner at the instant the
// accumulate carrying the step's product lands. A chain — a run of steps
// the plan marks Chained, ending at its first unchained step — sums its
// products into one partial and issues exactly one accumulate, and a failed
// op moves no data, so the steps of a chain are marked together or not at
// all and "marked" is precisely "this step's C contribution is durable".
// Marks happen at the same point the chain's tileSlot references retire, so
// a checkpointed run keeps the executor's pooled-buffer balance intact.
//
// After a fatal fault the unmarked steps are exactly the replay set of
// plan repair: re-executing them — and only them — on any surviving rank
// accumulates each elementary product exactly once (docs/RESILIENCE.md,
// "Recovery contract"). The flags are atomics because up to MaxInflight
// chains mark concurrently; readers inspect them after the crew drains.
type Checkpoint struct {
	landed []atomic.Bool
}

// Reset sizes the checkpoint for an n-step plan with every step unmarked,
// reusing storage across repair rounds.
func (c *Checkpoint) Reset(n int) {
	if cap(c.landed) < n {
		c.landed = make([]atomic.Bool, n)
		return
	}
	c.landed = c.landed[:n]
	for i := range c.landed {
		c.landed[i].Store(false)
	}
}

// Steps returns the number of steps tracked.
func (c *Checkpoint) Steps() int { return len(c.landed) }

// mark records step i's product as landed. Chain-runner side.
func (c *Checkpoint) mark(i int) { c.landed[i].Store(true) }

// Landed reports whether the accumulate carrying step i's product landed.
func (c *Checkpoint) Landed(i int) bool { return c.landed[i].Load() }

// LandedCount returns how many steps have landed.
func (c *Checkpoint) LandedCount() int {
	n := 0
	for i := range c.landed {
		if c.landed[i].Load() {
			n++
		}
	}
	return n
}
