package universal

import (
	"fmt"

	"slicing/internal/gpusim"
)

// ModelExecutor is the model-only execution mode — the third next to
// shmem and gpubackend: it replays a CompiledPlan's
// fetch/evict/accumulate schedule through the discrete-event engine and
// the system's fabric pricing with no real arithmetic and no tile
// allocation, so validation points run at full MLP scale (thousands of
// PEs) instead of 1/16. It is the one plan replay: SimulateMultiply and
// SimulateCompiledTrace are spellings of it, and every duration it
// schedules is a SimSystem price.
//
// The executor owns one engine and one replayer and reuses both across
// Simulate calls (Engine.Reset keeps all storage), so a sweep evaluating
// hundreds of points performs zero steady-state allocations per point
// once the largest point has been seen. Not safe for concurrent use; give
// each worker its own executor.
type ModelExecutor struct {
	eng *gpusim.Engine
	r   planReplayer
}

// NewModelExecutor returns an executor with an empty engine.
func NewModelExecutor() *ModelExecutor {
	return &ModelExecutor{eng: gpusim.NewEngine()}
}

// Simulate replays cp over sys and returns the modeled run. prob supplies
// the problem metadata the replay reads (dimensions, C replication and
// ownership for reduce_replicas); it may live on any backend — including a
// modelworld world that holds no data — but must match the compiled plan's
// key under cfg, and the topology must match the plan's world size.
func (x *ModelExecutor) Simulate(prob Problem, cp *CompiledPlan, cfg Config, sys SimSystem) SimResult {
	res, _ := x.simulate(prob, cp, cfg, sys)
	return res
}

func (x *ModelExecutor) simulate(prob Problem, cp *CompiledPlan, cfg Config, sys SimSystem) (SimResult, gpusim.Result) {
	cfg = cfg.withDefaults()
	p := cp.Key.NumPE
	if sys.Topo.NumPE() != p {
		panic(fmt.Sprintf("universal: compiled plan for %d PEs replayed on %d-PE topology", p, sys.Topo.NumPE()))
	}
	if !cp.Matches(prob, cfg) {
		panic("universal: problem/config does not match compiled plan key")
	}
	x.eng.Reset()
	return x.r.replay(prob, cfg, sys, cp.Plans, x.eng)
}

// SimulateCompiledTrace is the one-shot form of ModelExecutor.Simulate
// that additionally returns the engine and raw schedule, so callers can
// render the timeline (trace.WriteGantt) or inspect per-op timings. The returned Result's slices
// are owned by the engine (see gpusim.Result).
func SimulateCompiledTrace(prob Problem, cp *CompiledPlan, cfg Config, sys SimSystem) (SimResult, *gpusim.Engine, gpusim.Result) {
	x := NewModelExecutor()
	res, run := x.simulate(prob, cp, cfg, sys)
	return res, x.eng, run
}
