package universal

import (
	"fmt"
	"sort"

	"slicing/internal/distmat"
	rt "slicing/internal/runtime"
)

// RecoveryReport summarizes what the resilient multiply had to do.
type RecoveryReport struct {
	// Recovered is true when at least one rank failed fatally mid-run and
	// the replay completed: the result is correct, computed by a shrunken
	// world.
	Recovered bool
	// Rounds is the number of repair rounds executed (0 = clean run).
	Rounds int
	// FailedRanks lists every rank that failed during this call, sorted
	// ascending. Ranks excluded upfront via Config.Exclude are not listed.
	FailedRanks []int
	// ReplayedOps counts the ops adopted from failed ranks across all
	// rounds — the unfinished work the checkpoint identified.
	ReplayedOps int
}

// MultiplyResilient computes C = A·B like Multiply, but turns fatal PE
// loss into a degraded-but-correct continuation: execution is
// checkpointed per step, and when ranks fail (ErrPEFailed, exhausted
// retry budgets, per-op deadline blowouts) the survivors adopt exactly
// the unfinished steps and replay them, repeating until a round completes
// with no new failures. Collective; every PE must call it with the same
// arguments. On global success every rank returns a nil error — including
// crashed ranks, whose work the survivors absorbed — with the report
// describing the recovery; the error is non-nil only when recovery is
// impossible (every rank failed).
func MultiplyResilient(pe rt.PE, c, a, b *distmat.Matrix, cfg Config) (Stationary, RecoveryReport, error) {
	prob := NewProblem(c, a, b)
	c.Zero(pe) // includes a barrier
	return MultiplyAccumulateResilient(pe, prob, cfg)
}

// MultiplyAccumulateResilient is MultiplyResilient over an existing
// Problem, accumulating onto C's current values.
//
// The recovery protocol leans on the documented fault model
// (docs/RESILIENCE.md): a crashed rank's *initiations* fail, but its
// symmetric memory stays reachable and it keeps participating in
// barriers. Each round, every rank executes its assignment under a
// Checkpoint, publishes (failed?, landed-bitmap) into a symmetric status
// segment outside any fault scope, barriers, and reads everyone else's
// status one-sidedly. All ranks therefore compute the identical failure
// set and the identical round-robin redistribution of leftover ops
// (adoptedOps' deal), so control flow — and barrier counts — never
// diverge. Completed steps are never replayed: each step lands its C
// contribution exactly once, preserving the disjoint-accumulate
// invariant the correctness bound relies on.
func MultiplyAccumulateResilient(pe rt.PE, prob Problem, cfg Config) (Stationary, RecoveryReport, error) {
	cfg = cfg.withPlans(pe)
	rank, p := pe.Rank(), pe.NumPE()
	cp := cfg.Plans.GetOrCompile(prob, cfg)
	stat := cp.Key.Stationary

	// Status segment layout, per rank: word 0 is the failed flag, then 16
	// landed bits per float32 word (exact in a float32 mantissa). Any
	// round's assignment is at most the whole plan's step count, so one
	// stride covers every round.
	totalSteps := cp.Steps()
	words := 1 + (totalSteps+15)/16
	seg := pe.AllocSymmetric(words)
	scratch := make([]float32, words)

	curOps := make([][]LocalOp, p)
	for r := 0; r < p; r++ {
		steps := cp.Plans[r].Steps
		ops := make([]LocalOp, len(steps))
		for i := range steps {
			ops[i] = steps[i].Op
		}
		curOps[r] = ops
	}
	failedSet := make([]bool, p)
	for _, r := range cfg.Exclude {
		failedSet[r] = true // known-dead upfront; cp gave them empty plans
	}

	var report RecoveryReport
	var finalErr error
	landed := make([][]bool, p)
	var ckpt Checkpoint
	for round := 0; ; round++ {
		// Execute this round's assignment under the checkpoint. Round 0
		// reuses the compiled plan and its frozen fetch schedule (zero
		// slicing work on a cache hit); repair rounds lower the adopted op
		// lists with locality re-resolved for this rank.
		plan, sched := cp.Plans[rank], &cp.scheds[rank]
		if round > 0 {
			sched = new(fetchSchedule)
			plan = buildStepsFromOps(rank, prob, stat, curOps[rank], cp.Key.CacheTiles, cp.Key.SubTile, sched)
		}
		ckpt.Reset(len(plan.Steps))
		work := [1]feeder{{prob: prob, plan: plan, sched: sched, ckpt: &ckpt}}
		execErr := execute(pe, work[:], cfg)

		// Status exchange, outside any fault scope: local writes, a
		// barrier, one-sided reads of every peer, and a second barrier so
		// no rank overwrites its status while a slower peer still reads it.
		packStatus(pe.Local(seg), execErr != nil, &ckpt)
		pe.Barrier()
		var newly []int
		for r := 0; r < p; r++ {
			var rFailed bool
			if r == rank {
				rFailed, landed[r] = unpackStatus(pe.Local(seg), len(curOps[r]), landed[r])
			} else {
				pe.Get(scratch, seg, r, 0)
				rFailed, landed[r] = unpackStatus(scratch, len(curOps[r]), landed[r])
			}
			if rFailed && !failedSet[r] {
				newly = append(newly, r)
			}
		}
		pe.Barrier()

		if len(newly) == 0 {
			break // a full round with no new failures: done
		}
		report.Rounds++
		report.FailedRanks = append(report.FailedRanks, newly...)

		// The newly failed ranks' unfinished ops — exactly the unmarked
		// checkpoint steps — become the next round's work, dealt
		// round-robin across the survivors. Every rank computes the same
		// deal from the same exchanged state.
		var leftover []LocalOp
		for _, r := range newly {
			failedSet[r] = true
			for i, op := range curOps[r] {
				if !landed[r][i] {
					leftover = append(leftover, op)
				}
			}
		}
		report.ReplayedOps += len(leftover)
		var survivors []int
		for r := 0; r < p; r++ {
			if !failedSet[r] {
				survivors = append(survivors, r)
			}
		}
		if len(survivors) == 0 {
			finalErr = fmt.Errorf("universal: resilient multiply: all %d ranks failed: %w", p, rt.ErrPEFailed)
			break
		}
		for r := 0; r < p; r++ {
			curOps[r] = curOps[r][:0]
		}
		for i, op := range leftover {
			s := survivors[i%len(survivors)]
			curOps[s] = append(curOps[s], op)
		}
		if round > p {
			// Unreachable — every repair round permanently retires at least
			// one rank — but bound the loop against a misbehaving backend.
			finalErr = fmt.Errorf("universal: resilient multiply: no progress after %d rounds: %w", round, rt.ErrPEFailed)
			break
		}
	}
	report.Recovered = finalErr == nil && len(report.FailedRanks) > 0
	sort.Ints(report.FailedRanks)

	// Outside any fault scope, so crashed ranks participate and the
	// collective stays barrier-matched.
	Finish(pe, []Problem{prob}, cfg)
	return stat, report, finalErr
}

// packStatus writes one rank's round status into its status-segment
// slice: word 0 the failed flag, then the checkpoint's landed bits packed
// 16 per word (16-bit integers are exact in float32, the only symmetric
// element type).
func packStatus(dst []float32, failed bool, ckpt *Checkpoint) {
	for i := range dst {
		dst[i] = 0
	}
	if failed {
		dst[0] = 1
	}
	n := ckpt.Steps()
	for w := 1; w < len(dst); w++ {
		base := (w - 1) * 16
		if base >= n {
			break
		}
		var bits uint32
		for b := 0; b < 16 && base+b < n; b++ {
			if ckpt.Landed(base + b) {
				bits |= 1 << b
			}
		}
		dst[w] = float32(bits)
	}
}

// unpackStatus decodes a peer's status: its failed flag and the first
// nsteps landed bits. buf is reused across rounds.
func unpackStatus(src []float32, nsteps int, buf []bool) (failed bool, landed []bool) {
	failed = src[0] != 0
	if cap(buf) < nsteps {
		buf = make([]bool, nsteps)
	}
	landed = buf[:nsteps]
	for i := 0; i < nsteps; i++ {
		landed[i] = uint32(src[1+i/16])&(1<<(i%16)) != 0
	}
	return failed, landed
}
