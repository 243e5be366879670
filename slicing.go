// Package slicing is a Go reproduction of "Slicing Is All You Need:
// Towards A Universal One-Sided Algorithm for Distributed Matrix
// Multiplication" (Brock & Golin, SC 2025).
//
// It provides a single distributed matrix multiplication algorithm that
// supports every combination of partitionings (1D row/column block, 2D
// block, ScaLAPACK-style block-cyclic, deliberately misaligned tilings)
// and replication factors for all three operands of C = A·B, using only
// one-sided communication primitives (remote get and remote accumulate)
// over an in-process PGAS runtime.
//
// Quick start:
//
//	world := slicing.NewWorld(4)
//	a := slicing.NewMatrix(world, m, k, slicing.RowBlock{}, 1)
//	b := slicing.NewMatrix(world, k, n, slicing.ColBlock{}, 1)
//	c := slicing.NewMatrix(world, m, n, slicing.Block2D{}, 1)
//	world.Run(func(pe slicing.PE) {
//	    a.FillRandom(pe, 1)
//	    b.FillRandom(pe, 2)
//	    slicing.Multiply(pe, c, a, b, slicing.DefaultConfig())
//	})
//
// The package is a façade: the implementation lives in internal/ packages
// (index arithmetic, local GEMM kernels, the PGAS runtime, the distributed
// matrix data structure, the universal algorithm, IR lowering, cost model,
// serving, and the benchmark harness that regenerates the paper's
// figures).
package slicing

import (
	"slicing/internal/distmat"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	"slicing/internal/modelworld"
	"slicing/internal/runtime"
	"slicing/internal/serve"
	"slicing/internal/shmem"
	"slicing/internal/sweep"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// World is a collection of processing elements sharing a symmetric heap.
// It is the backend-independent world interface of internal/runtime;
// NewWorld returns the in-process shmem implementation and NewTimedWorld
// the timed one.
type World = runtime.World

// PE is one processing element's handle, valid inside World.Run: the
// paper's one-sided primitive set (remote get, remote accumulate, put,
// futures, barrier) as a backend-independent interface.
type PE = runtime.PE

// Backend constructs worlds of one runtime flavour.
type Backend = runtime.Backend

// Stats aggregates a world's one-sided traffic counters.
type Stats = runtime.Stats

// SegmentID names a symmetric-heap allocation.
type SegmentID = runtime.SegmentID

// Allocator abstracts symmetric allocation (both World and PE satisfy it).
type Allocator = runtime.Allocator

// NewWorld creates a world of p processing elements (goroutine-backed, one
// per simulated GPU) on the in-process shmem backend.
func NewWorld(p int) World { return shmem.NewWorld(p) }

// ShmemBackend returns the in-process PGAS backend.
func ShmemBackend() Backend { return shmem.Backend{} }

// GpuSimBackend returns the timed backend for sys: its worlds perform the
// same real computation while recording every operation, then schedule
// the recording on modeled per-device engines (a compute engine and copy
// engines per PE, plus fabric ports or links), so timed runs report a
// modeled wall-clock
// together with queue-depth contention and accumulate/GEMM interference
// (§5.2). Read the extra signals with StreamStatsOf.
func GpuSimBackend(sys SimSystem) Backend { return gpubackend.New(sys.Topo, sys.Dev) }

// NewTimedWorld creates a world on the timed backend for sys. The world
// computes real results; PredictedTime reports its modeled runtime.
func NewTimedWorld(sys SimSystem) World {
	return GpuSimBackend(sys).NewWorld(sys.Topo.NumPE())
}

// PredictedTime returns the modeled wall-clock of a world created on the
// timed backend, and ok=false for untimed backends.
func PredictedTime(w World) (seconds float64, ok bool) {
	return runtime.PredictedTimeOf(w)
}

// StreamStats reports a timed run's stream-level delay signals: queue
// delay behind busy engines and the time remote accumulates occupied
// victim compute engines.
type StreamStats = runtime.StreamStats

// StreamStatsOf returns w's stream-level delay signals, and ok=false when
// w's backend is untimed.
func StreamStatsOf(w World) (StreamStats, bool) {
	return runtime.StreamStatsOf(w)
}

// Matrix is a distributed dense matrix: shape × partition × replication.
type Matrix = distmat.Matrix

// Partition defines how a matrix is tiled and which slot owns each tile.
type Partition = distmat.Partition

// The partitioning vocabulary of the paper: 1D row/column block, 2D block,
// and ScaLAPACK-style custom descriptors (tile shape + process grid,
// block-cyclic), which also express misaligned tilings.
type (
	RowBlock  = distmat.RowBlock
	ColBlock  = distmat.ColBlock
	Block2D   = distmat.Block2D
	Custom    = distmat.Custom
	RowCyclic = distmat.RowCyclic
	ColCyclic = distmat.ColCyclic
)

// LocalReplica selects the calling PE's own replica in tile primitives.
const LocalReplica = distmat.LocalReplica

// NewMatrix allocates a distributed rows×cols matrix. The replication
// factor must divide the world size. Pass the *World before Run, or the
// *PE for a collective allocation inside Run.
func NewMatrix(alloc Allocator, rows, cols int, part Partition, replication int) *Matrix {
	return distmat.New(alloc, rows, cols, part, replication)
}

// Stationary selects the data movement strategy (Stationary A, B, or C).
type Stationary = universal.Stationary

// Stationary strategy constants; StationaryAuto keeps the largest matrix
// in place, the heuristic the paper recommends.
const (
	StationaryAuto = universal.StationaryAuto
	StationaryA    = universal.StationaryA
	StationaryB    = universal.StationaryB
	StationaryC    = universal.StationaryC
)

// Config tunes direct execution (§4.2): prefetch depth, bounded
// GEMM/accumulate concurrency, tile cache, memory pool.
type Config = universal.Config

// DefaultConfig returns the paper's direct-execution settings.
func DefaultConfig() Config {
	cfg := universal.DefaultConfig()
	cfg.SyncReplicas = true
	return cfg
}

// Multiply computes C = A·B with the universal one-sided algorithm for any
// combination of partitionings and replication factors. Collective: every
// PE must call it. Returns the resolved stationary strategy and, on
// fault-capable backends, the rank's first fatal one-sided fault after
// per-op retries (always nil on the in-process and simulated backends);
// see docs/RESILIENCE.md for the error taxonomy and retry budget.
func Multiply(pe PE, c, a, b *Matrix, cfg Config) (Stationary, error) {
	return universal.Multiply(pe, c, a, b, cfg)
}

// Problem bundles validated operands for advanced entry points
// (op generation, plans, simulation).
type Problem = universal.Problem

// NewProblem validates shapes and world-sharing for C = A·B.
func NewProblem(c, a, b *Matrix) Problem { return universal.NewProblem(c, a, b) }

// LocalOp is one generated local multiply: C(CIdx)[M×N] += A(AIdx)[M×K] ·
// B(BIdx)[K×N].
type LocalOp = universal.LocalOp

// GenerateOps runs the slicing pass of §4.1 for one rank.
func GenerateOps(rank int, p Problem, stat Stationary) []LocalOp {
	return universal.GenerateOps(rank, p, stat)
}

// SimSystem bundles an interconnect topology and a device model for
// simulated-time execution (the performance model behind Figures 2-3).
type SimSystem = universal.SimSystem

// SimResult reports a simulated multiply (makespan, percent of peak,
// traffic).
type SimResult = universal.SimResult

// PVCSystem returns the 12-tile Intel PVC node of Table 2.
func PVCSystem() SimSystem { return universal.PVCSystem() }

// H100System returns the 8-GPU Nvidia H100 node of Table 2.
func H100System() SimSystem { return universal.H100System() }

// PVCFabricSystem is PVCSystem with the link-routed network fabric
// (internal/fabric) installed: timed backends contend on individual MDFI
// bridges and Xe Link ports instead of one scalar port pair per tile.
func PVCFabricSystem() SimSystem { return universal.PVCFabricSystem() }

// H100FabricSystem is H100System with the link-routed fabric installed.
func H100FabricSystem() SimSystem { return universal.H100FabricSystem() }

// H100FatTreeSystem is a cluster of H100 nodes behind a rail-optimized IB
// fat-tree: nodes×8 PEs, railsPerNode NICs per node (1 = DGX-style single
// NIC, 8 = fully rail-optimized), leaf→spine uplinks oversubscribed by
// oversub. Timed worlds over it congest on individual NICs, rails, and
// spine uplinks — incast and oversubscription regimes the scalar
// topologies cannot express — and report per-link accounting through
// FabricStatsOf.
func H100FatTreeSystem(nodes, railsPerNode int, oversub float64) SimSystem {
	return universal.H100FatTreeSystem(nodes, railsPerNode, oversub)
}

// LinkStats reports one fabric link's busy seconds, imposed queue delay,
// and carried payload for a timed run over a link-routed topology.
type LinkStats = runtime.LinkStats

// FabricStatsOf returns w's per-link fabric accounting, and ok=false when
// w's backend is untimed or its topology has no link model (the scalar
// simnet presets).
func FabricStatsOf(w World) ([]LinkStats, bool) {
	return runtime.FabricStatsOf(w)
}

// SimulateMultiply runs the algorithm through the discrete-event
// performance model instead of real arithmetic.
func SimulateMultiply(p Problem, cfg Config, sys SimSystem) SimResult {
	return universal.SimulateMultiply(p, cfg, sys)
}

// Pool is a reusable float32 buffer pool (the §4.2 memory pool).
type Pool = gpusim.Pool

// NewPool returns an empty buffer pool.
func NewPool() *Pool { return gpusim.NewPool() }

// ChooseStationary prices all three data movement strategies with the
// §4.3 cost model on the given system and returns the cheapest together
// with its estimated runtime — the "straightforward to verify via a cost
// model" selection the paper describes. Pass the result as Config.Stationary.
func ChooseStationary(p Problem, sys SimSystem) (Stationary, float64) {
	return universal.ChooseStationary(p, sys)
}

// SparseMatrix is a distributed sparse (tiled CSR) matrix for the
// sparse-times-dense extension.
type SparseMatrix = distmat.Sparse

// CSR is a local compressed-sparse-row matrix.
type CSR = tile.CSR

// NewSparseMatrix distributes a global CSR matrix with the given partition
// and replication factor.
func NewSparseMatrix(alloc Allocator, global *CSR, part Partition, replication int) *SparseMatrix {
	return distmat.NewSparse(alloc, global, part, replication)
}

// MultiplySparse computes C = A·B with a distributed sparse A and dense B
// and C, under any partitioning/replication combination. Collective.
func MultiplySparse(pe PE, c *Matrix, a *SparseMatrix, b *Matrix, cfg Config) Stationary {
	return universal.MultiplySparse(pe, c, a, b, cfg)
}

// PlanKey is the canonical identity of a compiled plan: every problem and
// config spelling that slices identically maps to the same key.
type PlanKey = universal.PlanKey

// PlanKeyOf canonicalizes (problem, config) into its plan-cache key.
func PlanKeyOf(p Problem, cfg Config) PlanKey { return universal.PlanKeyOf(p, cfg) }

// CompiledPlan is an immutable compiled multiply: per-rank step plans plus
// frozen fetch schedules, reusable across every request with the same key
// and serializable (JSON) so tuned plans survive restarts.
type CompiledPlan = universal.CompiledPlan

// CompilePlans runs the slicing pass for all ranks once and freezes the
// result.
func CompilePlans(p Problem, cfg Config) *CompiledPlan { return universal.CompilePlans(p, cfg) }

// PlanCache is a bounded LRU of compiled plans with single-flight
// compilation. Multiply compiles through the world's own (PlansOf) unless
// Config.Plans names another.
type PlanCache = universal.PlanCache

// NewPlanCache returns a plan cache holding up to capacity plans.
func NewPlanCache(capacity int) *PlanCache { return universal.NewPlanCache(capacity) }

// PlansOf returns the world's shared plan cache, creating it on first use.
// The cache does not keep the world alive.
func PlansOf(w World) *PlanCache { return universal.PlansOf(w) }

// ModelExecutor is the model-only execution mode: it replays compiled
// plans through a reused discrete-event engine with no real arithmetic and
// no tile allocation, so cluster-scale what-if evaluation (thousands of
// PEs, internal/sweep's grids) runs at full MLP scale. Not safe for
// concurrent use; pool executors instead. See docs/SWEEPS.md.
type ModelExecutor = universal.ModelExecutor

// NewModelExecutor returns a reusable model-only executor.
func NewModelExecutor() *ModelExecutor { return universal.NewModelExecutor() }

// SimulateCompiledTrace replays one compiled plan over a system through a
// fresh model executor and returns the result plus the underlying engine
// run for tracing (the compiled-plan counterpart of SimulateMultiply).
func SimulateCompiledTrace(p Problem, cp *CompiledPlan, cfg Config, sys SimSystem) (SimResult, *gpusim.Engine, gpusim.Result) {
	return universal.SimulateCompiledTrace(p, cp, cfg, sys)
}

// ModelBackend is the metadata-only backend shim: worlds that carry
// segment lengths but no storage, on which plans, plan keys, and autotune
// searches are computed at cluster scale with zero tile memory. Any
// attempt to execute or touch data panics. See docs/SWEEPS.md.
type ModelBackend = modelworld.Backend

// NewModelWorld returns a metadata-only world with p PEs.
func NewModelWorld(p int) *modelworld.World { return modelworld.NewWorld(p) }

// SweepSpec declares a cluster sweep: one MLP layer and batch over a grid
// of H100 fat-tree shapes (node counts × rails × oversubscription ×
// degraded rails). The zero value sweeps the default Figure 2/3-shaped
// grid. See docs/SWEEPS.md.
type SweepSpec = sweep.Spec

// SweepArtifact is the schema-versioned ("sweep/v1"), machine-readable
// result of a cluster sweep — what cmd/cluster_sweep writes as
// SWEEP_*.json.
type SweepArtifact = sweep.Artifact

// RunSweep evaluates every grid point of the spec through the model-only
// executor, sharing compiled plans via cache (nil for a private cache),
// and returns a validated artifact. Deterministic: equal specs produce
// byte-identical artifacts.
func RunSweep(spec SweepSpec, cache *PlanCache) (*SweepArtifact, error) {
	return sweep.Run(spec, cache)
}

// Server is the multiply-as-a-service layer: a long-lived server
// multiplexing concurrent multiply requests from many tenants over one
// world, with bounded admission queues, round-robin fairness, fused
// batching of small GEMMs, deadlines via context, and per-tenant traffic
// accounting. See docs/SERVING.md.
type Server = serve.Server

// ServerConfig tunes a Server.
type ServerConfig = serve.Config

// ServerStats is a server-wide accounting snapshot.
type ServerStats = serve.Stats

// TenantStats is one tenant's accounting snapshot.
type TenantStats = serve.TenantStats

// NewServer creates a serving loop over w and starts its dispatcher. The
// server assumes exclusive use of w until Close.
func NewServer(w World, cfg ServerConfig) *Server { return serve.NewServer(w, cfg) }

// ErrQueueFull and ErrClosed are the Server.Multiply admission errors.
var (
	ErrQueueFull = serve.ErrQueueFull
	ErrClosed    = serve.ErrClosed
)
