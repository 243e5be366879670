// Timed backend walkthrough: the same universal multiply runs on the
// in-process shmem backend (the numeric reference) and on the timed
// backend for both Table 2 systems, and both produce the same C. The timed
// run additionally models the wall-clock of the schedule the runtime
// actually chose: it places each get, put, accumulate, and GEMM on modeled
// per-device engines (a compute engine, copy engines, fabric ports), so it
// also reports queue-depth contention (async prefetches stacking up on a
// copy engine) and accumulate/GEMM interference (remote accumulates
// occupying the victim device's compute engine, the §5.2 H100 effect).
package main

import (
	"fmt"
	"log"

	"slicing"
	"slicing/internal/tile"
)

const m, n, k = 512, 512, 512

// operands builds an accumulate-heavy layout: column-block A times
// row-block B is the outer-product partitioning, where every rank's GEMM
// results land in other ranks' C tiles.
func operands(world slicing.World) (a, b, c *slicing.Matrix) {
	a = slicing.NewMatrix(world, m, k, slicing.ColBlock{}, 1)
	b = slicing.NewMatrix(world, k, n, slicing.RowBlock{}, 1)
	c = slicing.NewMatrix(world, m, n, slicing.Block2D{}, 1)
	return a, b, c
}

// multiply runs C = A·B with a deep async pipeline and Stationary A, so
// the run both prefetches aggressively (queue depth) and accumulates
// remotely (interference on devices that model it).
func multiply(world slicing.World, a, b, c *slicing.Matrix) {
	cfg := slicing.DefaultConfig()
	cfg.PrefetchDepth = 4
	cfg.MaxInflight = 4
	cfg.Stationary = slicing.StationaryA
	world.Run(func(pe slicing.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		slicing.Multiply(pe, c, a, b, cfg)
	})
}

// gather pulls the full C on a separate world pass so verification traffic
// does not pollute the measured multiply.
func gather(world slicing.World, c *slicing.Matrix) *tile.Matrix {
	var out *tile.Matrix
	world.Run(func(pe slicing.PE) {
		if pe.Rank() == 0 {
			out = c.Gather(pe, 0)
		}
	})
	return out
}

func maxAbsDiff(x, y *tile.Matrix) float64 {
	worst := 0.0
	for i := range x.Data {
		d := float64(x.Data[i] - y.Data[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func main() {
	fmt.Printf("%dx%dx%d outer-product multiply, prefetch 4, Stationary A\n\n", m, n, k)
	for _, sys := range []slicing.SimSystem{slicing.PVCSystem(), slicing.H100System()} {
		name := sys.Topo.Name()

		// 1. Numeric reference on the untimed shmem backend.
		ref := slicing.NewWorld(sys.Topo.NumPE())
		ra, rb, rc := operands(ref)
		multiply(ref, ra, rb, rc)
		want := gather(ref, rc)

		// 2. The same multiply on the timed backend. Snapshot the modeled
		// time, traffic and stream stats before the verification gather
		// adds its own (modeled) transfers.
		world := slicing.NewTimedWorld(sys)
		a, b, c := operands(world)
		multiply(world, a, b, c)
		seconds, ok := slicing.PredictedTime(world)
		if !ok {
			log.Fatalf("%s: timed world did not report a predicted time", name)
		}
		ss, _ := slicing.StreamStatsOf(world)
		stats := world.Stats()

		d := maxAbsDiff(want, gather(world, c))
		if d > 1e-3 {
			log.Fatalf("%s: backends disagree, max abs diff %g", name, d)
		}

		fmt.Printf("%-16s modeled wall-clock %8.3f ms  (C matches shmem, max abs diff %.2g)\n", name, seconds*1e3, d)
		fmt.Printf("%-16s remote traffic %.1f MB get / %.1f MB accum\n", "",
			float64(stats.RemoteGetBytes)/1e6, float64(stats.RemoteAccumBytes)/1e6)
		fmt.Printf("%-16s %d stream ops: queue delay %.3f ms, accumulate/GEMM interference %.3f ms\n\n",
			"", ss.StreamOps, ss.QueueDelaySeconds*1e3, ss.AccumInterferenceSeconds*1e3)
	}
}
