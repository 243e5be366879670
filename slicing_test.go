package slicing_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"slicing"
	"slicing/internal/tile"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end to
// end through the façade only.
func TestPublicAPIQuickstart(t *testing.T) {
	const p, m, n, k = 4, 32, 28, 36
	world := slicing.NewWorld(p)
	a := slicing.NewMatrix(world, m, k, slicing.RowBlock{}, 1)
	b := slicing.NewMatrix(world, k, n, slicing.ColBlock{}, 1)
	c := slicing.NewMatrix(world, m, n, slicing.Block2D{}, 2)

	var ref, got *tile.Matrix
	world.Run(func(pe slicing.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
	})
	world.Run(func(pe slicing.PE) {
		if pe.Rank() == 0 {
			fa := a.Gather(pe, 0)
			fb := b.Gather(pe, 0)
			ref = tile.New(m, n)
			tile.GemmNaive(ref, fa, fb)
		}
	})
	world.Run(func(pe slicing.PE) {
		stat, _ := slicing.Multiply(pe, c, a, b, slicing.DefaultConfig())
		if stat != slicing.StationaryC && stat != slicing.StationaryA && stat != slicing.StationaryB {
			t.Errorf("unexpected stationary %v", stat)
		}
	})
	world.Run(func(pe slicing.PE) {
		if pe.Rank() == 0 {
			got = c.Gather(pe, 0)
		}
	})
	if !got.AllClose(ref, 1e-3) {
		t.Fatalf("quickstart result mismatch: %g", got.MaxAbsDiff(ref))
	}
}

func TestPublicAPISimulation(t *testing.T) {
	world := slicing.NewWorld(8)
	a := slicing.NewMatrix(world, 1024, 1024, slicing.RowBlock{}, 1)
	b := slicing.NewMatrix(world, 1024, 1024, slicing.ColBlock{}, 1)
	c := slicing.NewMatrix(world, 1024, 1024, slicing.Block2D{}, 1)
	prob := slicing.NewProblem(c, a, b)
	res := slicing.SimulateMultiply(prob, slicing.DefaultConfig(), slicing.H100System())
	if res.PercentOfPeak <= 0 {
		t.Fatalf("simulation produced %v", res)
	}
}

func TestPublicAPIOpGeneration(t *testing.T) {
	world := slicing.NewWorld(4)
	a := slicing.NewMatrix(world, 16, 16, slicing.RowBlock{}, 1)
	b := slicing.NewMatrix(world, 16, 16, slicing.ColBlock{}, 1)
	c := slicing.NewMatrix(world, 16, 16, slicing.Block2D{}, 1)
	prob := slicing.NewProblem(c, a, b)
	total := 0
	for rank := 0; rank < 4; rank++ {
		total += len(slicing.GenerateOps(rank, prob, slicing.StationaryC))
	}
	if total == 0 {
		t.Fatal("no ops generated through public API")
	}
}

func ExampleMultiply() {
	world := slicing.NewWorld(4)
	a := slicing.NewMatrix(world, 8, 8, slicing.RowBlock{}, 1)
	b := slicing.NewMatrix(world, 8, 8, slicing.ColBlock{}, 1)
	c := slicing.NewMatrix(world, 8, 8, slicing.Block2D{}, 1)
	world.Run(func(pe slicing.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		slicing.Multiply(pe, c, a, b, slicing.DefaultConfig())
	})
	fmt.Println("done")
	// Output: done
}

func TestChooseStationaryAdvisor(t *testing.T) {
	world := slicing.NewWorld(12)
	// MLP-2-like: B is the giant matrix; the advisor must not move it.
	a := slicing.NewMatrix(world, 1024, 49152, slicing.ColBlock{}, 1)
	b := slicing.NewMatrix(world, 49152, 12288, slicing.RowBlock{}, 1)
	c := slicing.NewMatrix(world, 1024, 12288, slicing.Block2D{}, 1)
	prob := slicing.NewProblem(c, a, b)
	stat, cost := slicing.ChooseStationary(prob, slicing.PVCSystem())
	if cost <= 0 {
		t.Fatalf("advisor cost = %g", cost)
	}
	if stat == slicing.StationaryC {
		t.Fatalf("advisor picked StationaryC despite a giant B")
	}
}

func TestPublicAPICyclicPartitions(t *testing.T) {
	world := slicing.NewWorld(3)
	m := slicing.NewMatrix(world, 9, 9, slicing.RowCyclic{}, 1)
	if m.Grid().NumTiles() != 9 {
		t.Fatalf("pure cyclic should have 9 row blocks, got %d", m.Grid().NumTiles())
	}
}

// TestPublicAPITimedBackends runs the quickstart multiply on both world
// constructors the façade exposes and checks the capability hooks: the
// timed world reports a predicted time and stream stats, and the untimed
// world reports neither.
func TestPublicAPITimedBackends(t *testing.T) {
	sys := slicing.H100System()
	run := func(world slicing.World) {
		a := slicing.NewMatrix(world, 96, 64, slicing.RowBlock{}, 1)
		b := slicing.NewMatrix(world, 64, 80, slicing.ColBlock{}, 1)
		c := slicing.NewMatrix(world, 96, 80, slicing.Block2D{}, 1)
		world.Run(func(pe slicing.PE) {
			a.FillRandom(pe, 1)
			b.FillRandom(pe, 2)
			slicing.Multiply(pe, c, a, b, slicing.DefaultConfig())
		})
	}

	plain := slicing.NewWorld(sys.Topo.NumPE())
	run(plain)
	if _, ok := slicing.PredictedTime(plain); ok {
		t.Fatal("untimed world reported a predicted time")
	}
	if _, ok := slicing.StreamStatsOf(plain); ok {
		t.Fatal("untimed world reported stream stats")
	}

	timed := slicing.NewTimedWorld(sys)
	run(timed)
	if sec, ok := slicing.PredictedTime(timed); !ok || sec <= 0 {
		t.Fatalf("timed world predicted (%g, %v)", sec, ok)
	}
	if ss, ok := slicing.StreamStatsOf(timed); !ok || ss.StreamOps == 0 {
		t.Fatalf("timed world reported stats (%+v, %v)", ss, ok)
	}
}

// TestPublicAPIServing exercises the multiply-as-a-service surface through
// the façade: a server over one world, two tenants, cached compiled plans,
// results checked against the serial reference.
func TestPublicAPIServing(t *testing.T) {
	const p, m, n, k = 4, 24, 20, 16
	world := slicing.NewWorld(p)
	a := slicing.NewMatrix(world, m, k, slicing.Block2D{}, 1)
	b := slicing.NewMatrix(world, k, n, slicing.Block2D{}, 1)
	c1 := slicing.NewMatrix(world, m, n, slicing.Block2D{}, 1)
	c2 := slicing.NewMatrix(world, m, n, slicing.Block2D{}, 1)

	var ref *tile.Matrix
	world.Run(func(pe slicing.PE) {
		a.FillRandom(pe, 7)
		b.FillRandom(pe, 8)
		if pe.Rank() == 0 {
			ref = tile.New(m, n)
			tile.GemmNaive(ref, a.Gather(pe, 0), b.Gather(pe, 0))
		}
	})

	srv := slicing.NewServer(world, slicing.ServerConfig{Batch: 2})
	var wg sync.WaitGroup
	for _, req := range []struct {
		tenant string
		c      *slicing.Matrix
	}{{"alice", c1}, {"bob", c2}} {
		wg.Add(1)
		go func(tenant string, c *slicing.Matrix) {
			defer wg.Done()
			if _, err := srv.Multiply(context.Background(), tenant, c, a, b); err != nil {
				t.Errorf("tenant %s: %v", tenant, err)
			}
		}(req.tenant, req.c)
	}
	wg.Wait()
	st := srv.Stats()
	srv.Close()

	if st.Served != 2 {
		t.Fatalf("served %d, want 2", st.Served)
	}
	if st.PlanCache.Builds != 1 {
		t.Fatalf("plan builds %d, want 1 (second request must hit the cache)", st.PlanCache.Builds)
	}
	world.Run(func(pe slicing.PE) {
		if pe.Rank() != 0 {
			return
		}
		for _, c := range []*slicing.Matrix{c1, c2} {
			got := c.Gather(pe, 0)
			for i := range got.Data {
				d := got.Data[i] - ref.Data[i]
				if d < 0 {
					d = -d
				}
				if d > 1e-3 {
					t.Fatalf("served result diverges from reference at %d: %g vs %g", i, got.Data[i], ref.Data[i])
				}
			}
		}
	})
}

// TestPublicAPIPlanCache round-trips a compiled plan through JSON and a
// cache via the façade types.
func TestPublicAPIPlanCache(t *testing.T) {
	const p, m, n, k = 2, 12, 10, 8
	world := slicing.NewWorld(p)
	a := slicing.NewMatrix(world, m, k, slicing.RowBlock{}, 1)
	b := slicing.NewMatrix(world, k, n, slicing.ColBlock{}, 1)
	c := slicing.NewMatrix(world, m, n, slicing.Block2D{}, 1)
	prob := slicing.NewProblem(c, a, b)
	cfg := slicing.DefaultConfig()

	cp := slicing.CompilePlans(prob, cfg)
	if cp.Key != slicing.PlanKeyOf(prob, cfg) {
		t.Fatal("compiled plan key does not match PlanKeyOf")
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back slicing.CompiledPlan
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key != cp.Key {
		t.Fatal("round-tripped plan changed key")
	}
	cache := slicing.NewPlanCache(4)
	cache.Put(&back)
	if _, ok := cache.Get(cp.Key); !ok {
		t.Fatal("restored plan not retrievable from cache")
	}
	if same := slicing.PlansOf(world); same != slicing.PlansOf(world) {
		t.Fatal("PlansOf must return a stable per-world cache")
	}
}
