package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"slicing"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/tile"
)

// problemSet is one distinct multiply of a workload: the mm-* workloads
// have one, the serve workloads one per tenant (one per op class).
type problemSet struct{ c, a, b *slicing.Matrix }

// mustMultiply multiplies outside the measured phase. The in-process
// backend raises no faults, so an error here is a bug; the slice recovers
// the panic into a failed slice.
func mustMultiply(w slicing.World, s problemSet, cfg slicing.Config) {
	if err := multiplyOnce(w, s.c, s.a, s.b, cfg); err != nil {
		panic(err)
	}
}

// medianOf runs f n times and returns the median duration.
func medianOf(n int, f func()) time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2]
}

// bestOf runs f n times and returns the shortest duration.
func bestOf(n int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		best = min(best, time.Since(t0))
	}
	return best
}

// perCall times f in batches until minTime has passed and returns the
// mean nanoseconds per call.
func perCall(minTime time.Duration, f func()) float64 {
	f()
	calls, start := 0, time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
		if el := time.Since(start); el >= minTime {
			return float64(el) / float64(calls)
		}
	}
}

// overheadPct is how much longer via takes than raw, in percent. The two
// are timed alternately and each reduced to its median, so a burst of
// interference does not land on one side only.
func overheadPct(raw, via func()) float64 {
	const rounds = 7
	var r, v [rounds]float64
	for i := 0; i < rounds; i++ {
		r[i] = perCall(10*time.Millisecond, raw)
		v[i] = perCall(10*time.Millisecond, via)
	}
	rm, vm := median(r[:]), median(v[:])
	return 100 * (vm - rm) / rm
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func randomTile(rng *rand.Rand, rows, cols int) *tile.Matrix {
	t := tile.New(rows, cols)
	t.FillRandom(rng)
	return t
}

// ---- span-derived metrics ------------------------------------------------

// spanMetrics reduces a traced phase's spans to per-op layer metrics.
// "Per op" divides by the op spans recorded; busy and wait times sum over
// PEs the time spent inside the call. Activations still running when the
// span store filled (fullAt) are left out: they lost children.
func spanMetrics(m metrics, spans []span, fullAt int64) {
	complete := func(s span) bool { return s.End != 0 && (fullAt == 0 || s.End <= fullAt) }
	// Which activations count, and the op spans finished in that window.
	okAct := map[int32]bool{}
	var acts []span
	var ops float64
	for _, s := range spans {
		switch {
		case s.Kind == kindActivation && complete(s):
			okAct[s.Seq] = true
			acts = append(acts, s)
		case s.Kind == kindOp && complete(s):
			ops++
		}
	}
	if ops == 0 || len(acts) == 0 {
		return
	}
	// Group the one-sided spans under their rank body.
	type body struct {
		s        span
		children []interval
	}
	bodies := map[int32]*body{} // by pe span id
	for i, s := range spans {
		if s.Kind == kindPE && okAct[s.Seq] && s.End != 0 {
			bodies[int32(i+1)] = &body{s: s}
		}
	}
	var calls, bytes, busy [numKinds]float64
	for _, s := range spans {
		b := bodies[s.Parent]
		if b == nil || s.End == 0 || s.Kind < kindGet {
			continue
		}
		calls[s.Kind]++
		bytes[s.Kind] += float64(s.Bytes)
		busy[s.Kind] += float64(s.End - s.Start)
		b.children = append(b.children, interval{s.Start, s.End})
	}
	m["shmem.get_calls"] = calls[kindGet] / ops
	m["shmem.get_mb"] = bytes[kindGet] / 1e6 / ops
	m["shmem.get_busy_ms"] = busy[kindGet] / 1e6 / ops
	m["shmem.accum_calls"] = calls[kindAccum] / ops
	m["shmem.accum_mb"] = bytes[kindAccum] / 1e6 / ops
	m["shmem.accum_busy_ms"] = busy[kindAccum] / 1e6 / ops
	m["shmem.barrier_calls"] = calls[kindBarrier] / ops
	m["shmem.barrier_wait_ms"] = busy[kindBarrier] / 1e6 / ops

	// Rank bodies: self time is the body minus what its one-sided calls
	// cover; imbalance compares the bodies of one activation.
	var self float64
	durs := map[int32][]float64{} // by activation
	for _, b := range bodies {
		self += float64(selfTime(b.s.Start, b.s.End, b.children))
		durs[b.s.Seq] = append(durs[b.s.Seq], float64(b.s.End-b.s.Start))
	}
	m["universal.pe_self_ms"] = self / 1e6 / ops
	var imbalance []float64
	for _, d := range durs {
		lo, hi, sum := d[0], d[0], 0.0
		for _, v := range d {
			lo, hi, sum = min(lo, v), max(hi, v), sum+v
		}
		if sum > 0 {
			imbalance = append(imbalance, 100*(hi-lo)/(sum/float64(len(d))))
		}
	}
	sort.Float64s(imbalance)
	m["universal.pe_imbalance_pct"] = imbalance[len(imbalance)/2]

	// Activations: their length, and the world's idle gaps between them
	// (batch assembly, plan lookup, delivery).
	sort.Slice(acts, func(i, j int) bool { return acts[i].Start < acts[j].Start })
	lens := make([]int64, len(acts))
	var gaps []int64
	var busyWorld int64
	for i, a := range acts {
		lens[i] = a.End - a.Start
		busyWorld += lens[i]
		if i > 0 {
			gaps = append(gaps, a.Start-acts[i-1].End)
		}
	}
	sort.Slice(lens, func(i, j int) bool { return lens[i] < lens[j] })
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	m["serve.activation_ms_p50"] = percentileMs(lens, 0.50)
	m["serve.dispatch_gap_us_p50"] = 1e3 * percentileMs(gaps, 0.50)
	if window := acts[len(acts)-1].End - acts[0].Start; window > 0 {
		m["serve.world_busy_pct"] = 100 * float64(busyWorld) / float64(window)
	}
	m["_activation_ms_mean"] = float64(busyWorld) / 1e6 / float64(len(acts))
}

// ---- workload-specific analysis of real multiplies -----------------------

// layersOfProblems measures, outside the measured phase, what the layers
// under a workload's multiplies cost on their own: the slicing pass, plan
// compilation and lookup, the kernel floor, the cold path, the plain
// single-threaded baseline, and the exact traffic counters.
//
// sets[i] is the multiply of op class i and share[i] that class's share of
// the phase's completed ops. The named counts and times sum one op of
// every class, so they repeat exactly; the "_…_per_op" values weight each
// class by its share, which puts them on the basis of the span-derived
// per-op metrics they are compared with.
func layersOfProblems(m metrics, w slicing.World, warm slicing.Config, sets []problemSet, share []float64) {
	p := w.NumPE()
	probs := make([]slicing.Problem, len(sets))
	for i, s := range sets {
		probs[i] = slicing.NewProblem(s.c, s.a, s.b)
	}

	// index: the slicing pass for every rank.
	opsOf := make([][]slicing.LocalOp, len(probs))
	m["index.genops_us"] = float64(medianOf(5, func() {
		for i, prob := range probs {
			opsOf[i] = opsOf[i][:0]
			for rank := 0; rank < p; rank++ {
				opsOf[i] = append(opsOf[i], slicing.GenerateOps(rank, prob, warm.Stationary)...)
			}
		}
	})) / 1e3

	// tile: exact work, and the kernel floor — the workload's own op
	// shapes replayed serially through tile.Gemm.
	var flops float64
	var nops, maxA, maxB, maxC int
	for _, ops := range opsOf {
		nops += len(ops)
		for _, op := range ops {
			flops += op.Flops()
			maxA = max(maxA, op.M.Len()*op.K.Len())
			maxB = max(maxB, op.K.Len()*op.N.Len())
			maxC = max(maxC, op.M.Len()*op.N.Len())
		}
	}
	m["index.ops"] = float64(nops)
	m["tile.gemm_calls"] = float64(nops)
	m["tile.flops"] = flops
	rng := rand.New(rand.NewSource(1))
	bufA, bufB, bufC := randomTile(rng, 1, maxA), randomTile(rng, 1, maxB), tile.New(1, maxC)
	var replay time.Duration
	var replayPerOp float64
	for i, ops := range opsOf {
		d := bestOf(5, func() {
			for _, op := range ops {
				mm, kk, nn := op.M.Len(), op.K.Len(), op.N.Len()
				a := tile.Matrix{Rows: mm, Cols: kk, Stride: kk, Data: bufA.Data[:mm*kk]}
				b := tile.Matrix{Rows: kk, Cols: nn, Stride: nn, Data: bufB.Data[:kk*nn]}
				c := tile.Matrix{Rows: mm, Cols: nn, Stride: nn, Data: bufC.Data[:mm*nn]}
				tile.Gemm(&c, &a, &b)
			}
		})
		replay += d
		replayPerOp += share[i] * ms(d)
	}
	m["tile.replay_ms"] = ms(replay)
	m["tile.replay_gflops"] = flops / replay.Seconds() / 1e9
	m["_replay_ms_per_op"] = replayPerOp
	// The kernel floor of one op: its replay spread over the PEs that can
	// run at once.
	m["_floor_ms"] = replayPerOp / float64(min(p, runtime.GOMAXPROCS(0)))

	// universal: compile, key and cache-hit cost.
	stepsOf := make([]int, len(probs))
	m["universal.compile_ms"] = ms(medianOf(3, func() {
		for i, prob := range probs {
			stepsOf[i] = slicing.CompilePlans(prob, warm).Steps()
		}
	}))
	var steps int
	var stepsPerOp float64
	for i, n := range stepsOf {
		steps += n
		stepsPerOp += share[i] * float64(n)
	}
	m["universal.plan_steps"] = float64(steps)
	m["_steps_per_op"] = stepsPerOp
	m["universal.plankey_ns"] = perCall(20*time.Millisecond, func() {
		for _, prob := range probs {
			slicing.PlanKeyOf(prob, warm)
		}
	})
	cache := slicing.NewPlanCache(len(probs))
	m["universal.cache_hit_ns"] = perCall(20*time.Millisecond, func() {
		for _, prob := range probs {
			cache.GetOrCompile(prob, warm)
		}
	})

	// universal: the cold path (README quick start: no cache, no pool)
	// against the warm one, same operands.
	multiplyAll := func(cfg slicing.Config) {
		for _, s := range sets {
			mustMultiply(w, s, cfg)
		}
	}
	multiplyAll(warm)
	cold := medianOf(5, func() { multiplyAll(slicing.DefaultConfig()) })
	hot := medianOf(5, func() { multiplyAll(warm) })
	m["universal.cold_multiply_ms"] = ms(cold)
	m["universal.cold_over_warm_x"] = cold.Seconds() / hot.Seconds()

	// The plain baseline: the whole problem through one goroutine's
	// tile.Gemm. The parent divides it by the untraced op_ms_p50.
	var serialPerOp float64
	for i, prob := range probs {
		mm, nn, kk := prob.Dims()
		a, b, c := randomTile(rng, mm, kk), randomTile(rng, kk, nn), tile.New(mm, nn)
		serialPerOp += share[i] * ms(bestOf(3, func() { tile.Gemm(c, a, b) }))
	}
	m["_serial_gemm_ms_per_op"] = serialPerOp

	// shmem: exact traffic of one op of each problem, from World.Stats().
	w.ResetStats()
	multiplyAll(warm)
	st := w.Stats()
	m["shmem.remote_get_mb"] = float64(st.RemoteGetBytes) / 1e6
	m["shmem.remote_accum_mb"] = float64(st.RemoteAccumBytes) / 1e6
	m["shmem.local_accum_mb"] = float64(st.LocalAccumBytes) / 1e6
	m["shmem.remote_ops"] = float64(st.RemoteOps)
}

// naiveServe measures the plain serving baseline on the same operands: a
// sequential loop issuing one uncached collective per request.
func naiveServe(m metrics, w slicing.World, sets []problemSet) {
	requests, start := 0, time.Now()
	for time.Since(start) < 300*time.Millisecond {
		for _, s := range sets {
			mustMultiply(w, s, slicing.Config{})
			requests++
		}
	}
	m["serve.naive_rps"] = float64(requests) / time.Since(start).Seconds()
}

// ---- model-replay ---------------------------------------------------------

func (wl *modelWorkload) layers(m metrics, _ []float64) {
	if len(wl.stages) == 0 {
		return
	}
	var fabric, compile, simulate time.Duration
	for _, st := range wl.stages {
		fabric, compile, simulate = fabric+st.fabric, compile+st.compile, simulate+st.simulate
	}
	n := float64(len(wl.stages))
	m["fabric.build_ms"] = ms(fabric) / n
	m["universal.model_compile_ms"] = ms(compile) / n
	m["universal.model_simulate_ms"] = ms(simulate) / n
	// Exact pins over one cycle, and the scheduler's rate over it.
	var simOps int
	var makespan float64
	for i := range wl.points {
		simOps += wl.ref[i].Ops
		makespan += wl.ref[i].Makespan
	}
	m["universal.model_ops"] = float64(simOps)
	m["universal.model_makespan_sum_s"] = makespan
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var st modelStages
	var cycle time.Duration
	for _, pt := range wl.points {
		wl.replay(pt, &st)
		cycle += st.simulate
	}
	runtime.ReadMemStats(&ms1)
	m["gpusim.sched_ops_per_s"] = float64(simOps) / cycle.Seconds()
	m["gpusim.allocs_per_replay"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(wl.points))
}

// ---- workload-independent probes -------------------------------------------

// probes measures each layer's primitive on its own, in a fresh process.
func probes(m metrics) {
	rng := rand.New(rand.NewSource(2))
	// tile: single-goroutine tile.Gemm at three tile sizes.
	for _, d := range []int{32, 128, 512} {
		a, b, c := randomTile(rng, d, d), randomTile(rng, d, d), tile.New(d, d)
		ns := perCall(150*time.Millisecond, func() { tile.Gemm(c, a, b) })
		m["tile.gemm_gflops_"+strconv.Itoa(d)] = tile.Flops(d, d, d) / ns
	}

	// shmem: a 4 MB vector from rank 0 to rank 1. The vector stays
	// cache-resident, so these are copy rates, not memory bandwidth.
	const elems = 1 << 20
	w := slicing.NewWorld(2)
	seg := w.AllocSymmetric(elems)
	buf := make([]float32, elems)
	mbs := func(op func(pe rt.PE)) float64 {
		var ns float64
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				ns = perCall(100*time.Millisecond, func() { op(pe) })
			}
		})
		return 4 * elems / 1e6 / (ns / 1e9)
	}
	m["shmem.get_mbs"] = mbs(func(pe rt.PE) { pe.Get(buf, seg, 1, 0) })
	m["shmem.accum_mbs"] = mbs(func(pe rt.PE) { pe.AccumulateAdd(buf, seg, 1, 0) })
	m["shmem.getput_mbs"] = mbs(func(pe rt.PE) { pe.AccumulateAddGetPut(buf, seg, 1, 0) })

	// shmem: one empty collective activation with two barriers on 4 PEs.
	w4 := slicing.NewWorld(4)
	m["shmem.activation_us"] = perCall(150*time.Millisecond, func() {
		w4.Run(func(pe rt.PE) {
			pe.Barrier()
			pe.Barrier()
		})
	}) / 1e3

	// distmat: a remote 32² tile through the matrix layer against the raw
	// one-sided call moving the same bytes.
	part := slicing.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
	mat := slicing.NewMatrix(w4, 64, 64, part, 1)
	remote := index.TileIdx{Row: 0, Col: 1}
	owner := mat.OwnerRank(remote, slicing.LocalReplica, 0)
	w4.Run(func(pe rt.PE) {
		if pe.Rank() != 0 || owner == 0 {
			return
		}
		dst := tile.New(32, 32)
		seg, off := mat.Segment(), mat.TileOffset(remote)
		m["distmat.get_tile_overhead_pct"] = overheadPct(
			func() { pe.Get(dst.Data, seg, owner, off) },
			func() { mat.GetTileInto(pe, dst, remote, slicing.LocalReplica) })
		m["distmat.accum_tile_overhead_pct"] = overheadPct(
			func() { pe.AccumulateAdd(dst.Data, seg, owner, off) },
			func() { mat.AccumulateTile(pe, remote, slicing.LocalReplica, dst) })
	})
}
