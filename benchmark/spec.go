package main

// metricSpec is one metric of BENCHMARK.json: its name, unit, which
// direction is better, and (end-to-end only) the share of the parent's
// median by which it may get worse.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json's order. failed_pct is reported by the suite too, but it
// is 0 on a healthy run, so BENCHMARK.json carries it as the result
// line's attempted / failed counts instead of as a bounded metric.
var endToEnd = []metricSpec{
	{"op_ms_p50", "ms", lower, 0.25},
	{"op_ms_p90", "ms", lower, 0.25},
	{"op_ms_p99", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"gflops", "GFLOP/s", higher, 0.25},
	{"allocs_per_op", "count", lower, 0.10},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// suiteEndToEnd is what the suite prints and stores per workload: the
// bounded metrics plus failed_pct.
var suiteEndToEnd = append(append([]metricSpec(nil), endToEnd...), metricSpec{Name: "failed_pct", Unit: "%", Better: lower})

// setupFloorS is the absolute slack of setup_s: it may worsen by
// max(bound, setupFloorS) before -compare calls it worse.
const setupFloorS = 0.050

// perLayer lists the traced run's per-layer metrics (layer = package
// name), in BENCHMARK.json's order. A metric that does not apply to a
// workload reads 0 there; benchmark/README.md has the table.
var perLayer = []metricSpec{
	{"tile.gemm_gflops_32", "GFLOP/s", higher, 0},
	{"tile.gemm_gflops_128", "GFLOP/s", higher, 0},
	{"tile.gemm_gflops_512", "GFLOP/s", higher, 0},
	{"tile.gemm_calls", "count", lower, 0},
	{"tile.flops", "count", lower, 0},
	{"tile.replay_ms", "ms", lower, 0},
	{"tile.replay_gflops", "GFLOP/s", higher, 0},
	{"tile.floor_share", "ratio", higher, 0},

	{"index.genops_us", "us", lower, 0},
	{"index.ops", "count", lower, 0},

	{"universal.compile_ms", "ms", lower, 0},
	{"universal.plan_steps", "count", lower, 0},
	{"universal.plankey_ns", "ns", lower, 0},
	{"universal.cache_hit_ns", "ns", lower, 0},
	{"universal.cold_multiply_ms", "ms", lower, 0},
	{"universal.cold_over_warm_x", "x", lower, 0},
	{"universal.pe_self_ms", "ms", lower, 0},
	{"universal.overhead_ms", "ms", lower, 0},
	{"universal.overhead_us_per_step", "us", lower, 0},
	{"universal.pe_imbalance_pct", "%", lower, 0},
	{"universal.allocs_per_step", "count", lower, 0},
	{"universal.pool_fresh_per_op", "count", lower, 0},
	{"universal.pool_live_after", "count", lower, 0},
	{"universal.dist_speedup_x", "x", higher, 0},

	{"shmem.get_calls", "count", lower, 0},
	{"shmem.get_mb", "MB", lower, 0},
	{"shmem.get_busy_ms", "ms", lower, 0},
	{"shmem.accum_calls", "count", lower, 0},
	{"shmem.accum_mb", "MB", lower, 0},
	{"shmem.accum_busy_ms", "ms", lower, 0},
	{"shmem.barrier_calls", "count", lower, 0},
	{"shmem.barrier_wait_ms", "ms", lower, 0},
	{"shmem.remote_get_mb", "MB", lower, 0},
	{"shmem.remote_accum_mb", "MB", lower, 0},
	{"shmem.local_accum_mb", "MB", lower, 0},
	{"shmem.remote_ops", "count", lower, 0},
	{"shmem.get_mbs", "MB/s", higher, 0},
	{"shmem.accum_mbs", "MB/s", higher, 0},
	{"shmem.getput_mbs", "MB/s", higher, 0},
	{"shmem.activation_us", "us", lower, 0},

	{"distmat.get_tile_overhead_pct", "%", lower, 0},
	{"distmat.accum_tile_overhead_pct", "%", lower, 0},

	{"serve.avg_batch", "count", higher, 0},
	{"serve.activations_per_s", "1/s", higher, 0},
	{"serve.activation_ms_p50", "ms", lower, 0},
	{"serve.per_request_us", "us", lower, 0},
	{"serve.dispatch_gap_us_p50", "us", lower, 0},
	{"serve.world_busy_pct", "%", higher, 0},
	{"serve.wait_ms_mean", "ms", lower, 0},
	{"serve.plan_cache_hit_pct", "%", higher, 0},
	{"serve.rejected", "count", lower, 0},
	{"serve.shed", "count", lower, 0},
	{"serve.failed", "count", lower, 0},
	{"serve.expired", "count", lower, 0},
	{"serve.retries", "count", lower, 0},
	{"serve.naive_rps", "1/s", higher, 0},
	{"serve.speedup_x", "x", higher, 0},
	{"serve.class16_ms_p50", "ms", lower, 0},
	{"serve.class64_ms_p50", "ms", lower, 0},
	{"serve.class256_ms_p50", "ms", lower, 0},
	{"serve.tenant_share_spread_pct", "%", lower, 0},

	{"fabric.build_ms", "ms", lower, 0},
	{"universal.model_compile_ms", "ms", lower, 0},
	{"universal.model_simulate_ms", "ms", lower, 0},
	{"gpusim.sched_ops_per_s", "1/s", higher, 0},
	{"gpusim.allocs_per_replay", "count", lower, 0},
	{"universal.model_ops", "count", lower, 0},
	{"universal.model_makespan_sum_s", "s", lower, 0},

	{"proc.cpu_s_per_op", "s", lower, 0},
	{"proc.gc_pause_ms", "ms", lower, 0},
	{"proc.gomaxprocs1_slowdown_x", "x", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
}
