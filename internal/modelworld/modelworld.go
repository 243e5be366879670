// Package modelworld provides the model-only execution substrate: a
// runtime.Backend whose worlds carry the full one-sided contract's
// *metadata* — world size and symmetric-segment lengths — but allocate no
// storage and execute nothing. It exists so the plan/estimate pipeline
// (distmat construction, BuildPlan, PlanKeyOf, universal.ProblemCost,
// universal.SimulateMultiply and the ModelExecutor) can run at full
// cluster scale: a 1024-PE MLP layer's matrices would need gigabytes of
// float32 under shmem, but every consumer on that pipeline reads only
// shapes, ownership, and replication. Anything that would touch data —
// SegmentStorage, Run — panics with a message naming this package, so an
// accidental attempt to really execute on a model world fails loudly at
// the call site instead of corrupting an estimate.
package modelworld

import (
	"fmt"

	rt "slicing/internal/runtime"
)

// Backend constructs model-only worlds. It satisfies runtime.Backend so
// harness code that is generic over backends (autotune, the sweep
// subsystem) can treat "model" as a third execution mode next to shmem
// and gpubackend.
type Backend struct{}

// Name identifies the backend.
func (Backend) Name() string { return "model" }

// NewWorld creates a model world of p processing elements.
func (Backend) NewWorld(p int) rt.World { return NewWorld(p) }

// World is a metadata-only world: allocation records per-PE segment
// lengths without reserving storage, and every data or execution path
// panics. It is not safe for concurrent AllocSymmetric calls (matching
// the host-side, pre-Run allocation discipline of the real backends).
type World struct {
	p       int
	seglens []int
}

// NewWorld returns a model world of p PEs.
func NewWorld(p int) *World {
	if p <= 0 {
		panic(fmt.Sprintf("modelworld: world size %d", p))
	}
	return &World{p: p}
}

// NumPE returns the number of processing elements.
func (w *World) NumPE() int { return w.p }

// World returns the world itself (the Allocator contract).
func (w *World) World() rt.World { return w }

// AllocSymmetric records a segment of n float32 on every PE — no memory is
// reserved, only the length, which is all plan construction reads.
func (w *World) AllocSymmetric(n int) rt.SegmentID {
	if n < 0 {
		panic(fmt.Sprintf("modelworld: negative segment length %d", n))
	}
	w.seglens = append(w.seglens, n)
	return rt.SegmentID(len(w.seglens) - 1)
}

// SegmentLen returns the per-PE length of a segment.
func (w *World) SegmentLen(seg rt.SegmentID) int { return w.seglens[seg] }

// SegmentStorage panics: a model world has no backing arrays.
func (w *World) SegmentStorage(seg rt.SegmentID, rank int) []float32 {
	panic("modelworld: model worlds hold no storage; use a real backend to execute")
}

// Run panics: a model world cannot execute PE bodies. Replay compiled
// plans through universal.ModelExecutor instead.
func (w *World) Run(body func(pe rt.PE)) {
	panic("modelworld: model worlds cannot execute; replay plans through the model executor")
}

// Stats returns zeroed traffic counters (nothing ever moves).
func (w *World) Stats() rt.Stats { return rt.Stats{} }

// ResetStats is a no-op.
func (w *World) ResetStats() {}
