package runtime

import (
	"fmt"
	"sync"
)

// HealthReporter is the optional capability a world may implement to
// expose per-rank liveness: RankFailed reports whether the rank's
// initiations are currently failing fatally (ErrPEFailed). The chaos
// layer implements it from its sticky crash flags; a production backend
// would implement it from RDMA completion-queue health. Like every
// runtime capability it is discovered by type assertion — worlds without
// it are assumed fully healthy.
type HealthReporter interface {
	RankFailed(rank int) bool
}

// Membership is a health view over one world's ranks: per-rank liveness
// flags plus monotone epochs that advance on every transition, so a
// consumer can tell "still dead" from "died again after a heal". It is
// the recovery subsystem's source of truth for which ranks a repaired
// plan may schedule work on (World.Exclude semantics: an excluded rank
// keeps participating in barriers and collectives — its memory stays
// reachable — but is assigned no plan steps).
//
// Membership itself observes nothing; feed it from a HealthReporter via
// Sync, or script transitions directly with Exclude/Revive.
type Membership struct {
	mu    sync.Mutex
	alive []bool
	epoch []uint64
}

// NewMembership returns a membership view of p ranks, all alive at
// epoch 0.
func NewMembership(p int) *Membership {
	if p <= 0 {
		panic(fmt.Sprintf("runtime: membership over %d ranks", p))
	}
	m := &Membership{alive: make([]bool, p), epoch: make([]uint64, p)}
	for r := range m.alive {
		m.alive[r] = true
	}
	return m
}

// NumPE returns the number of ranks tracked.
func (m *Membership) NumPE() int { return len(m.alive) }

// Exclude marks rank dead, advancing its epoch; it reports whether the
// rank was alive (false makes repeated exclusion idempotent).
func (m *Membership) Exclude(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.alive[rank] {
		return false
	}
	m.alive[rank] = false
	m.epoch[rank]++
	return true
}

// Revive marks rank alive again, advancing its epoch; it reports whether
// the rank was dead.
func (m *Membership) Revive(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.alive[rank] {
		return false
	}
	m.alive[rank] = true
	m.epoch[rank]++
	return true
}

// Alive reports rank liveness.
func (m *Membership) Alive(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive[rank]
}

// Epoch returns rank's transition count: 0 = never transitioned, odd =
// currently dead, even = alive again after Epoch/2 kill/heal cycles.
func (m *Membership) Epoch(rank int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch[rank]
}

// NumAlive returns the number of live ranks.
func (m *Membership) NumAlive() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, a := range m.alive {
		if a {
			n++
		}
	}
	return n
}

// Excluded returns the dead ranks in ascending order, nil when all are
// alive — the exact value universal.Config.Exclude consumes.
func (m *Membership) Excluded() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dead []int
	for r, a := range m.alive {
		if !a {
			dead = append(dead, r)
		}
	}
	return dead
}

// Survivors returns the live ranks in ascending order.
func (m *Membership) Survivors() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	live := make([]int, 0, len(m.alive))
	for r, a := range m.alive {
		if a {
			live = append(live, r)
		}
	}
	return live
}

// Sync reconciles the membership against w's HealthReporter, returning
// how many ranks newly died and how many healed. Worlds without the
// capability leave the view unchanged. Sync is how the serving loop picks
// up both crashes (before recompiling against the survivors) and heals
// (before re-including a revived rank in the next batch).
func (m *Membership) Sync(w World) (died, healed int) {
	hr, ok := w.(HealthReporter)
	if !ok {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for r := range m.alive {
		failed := hr.RankFailed(r)
		switch {
		case failed && m.alive[r]:
			m.alive[r] = false
			m.epoch[r]++
			died++
		case !failed && !m.alive[r]:
			m.alive[r] = true
			m.epoch[r]++
			healed++
		}
	}
	return died, healed
}
