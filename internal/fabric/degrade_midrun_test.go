package fabric_test

// Mid-run degrade contract (docs/RESILIENCE.md): fabric.DegradeAt may be
// called from any goroutine while timed worlds are pricing transfers over
// the same fabric. Bandwidth reads and the degrade write both go through
// the per-link atomic, so these tests are primarily -race regressions;
// they also pin the visible effects (degraded runs slow down, unknown
// links are refused).

import (
	"sync"
	"testing"

	"slicing/internal/fabric"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
)

// degradeWorlds builds a fresh 2-node fat-tree fabric per call (Degrade
// mutates it) and the timed backend routed over it.
func degradeWorlds() map[string]func() rt.TimedWorld {
	return map[string]func() rt.TimedWorld{
		"gpubackend": func() rt.TimedWorld {
			f := fabric.H100FatTree(2, 2, 1)
			return gpubackend.New(f.Topology(), gpusim.PresetH100Device()).NewWorld(16).(rt.TimedWorld)
		},
	}
}

// TestDegradeLinkMidRunRace degrades a rail repeatedly from another
// goroutine while every rank hammers cross-node gets. Run with -race:
// a non-atomic bandwidth read anywhere on the pricing path fails here.
func TestDegradeLinkMidRunRace(t *testing.T) {
	for name, mk := range degradeWorlds() {
		t.Run(name, func(t *testing.T) {
			w := mk()
			const n = 1 << 12
			seg := w.AllocSymmetric(4 * n)
			var wg sync.WaitGroup
			wg.Add(1)
			stop := make(chan struct{})
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					// Alternate the two rails, shaving bandwidth each pass.
					if !rt.DegradeLinkOf(w, "n0.nic0.ib>", 0.99) {
						t.Error("DegradeLink refused a known link")
						return
					}
					rt.DegradeLinkOf(w, "n1.nic1.ib>", 0.99)
				}
			}()
			p := w.NumPE()
			w.Run(func(pe rt.PE) {
				buf := make([]float32, n)
				for round := 0; round < 8; round++ {
					// Cross-node neighbour: ranks 0-7 are node 0, 8-15 node 1.
					pe.Get(buf, seg, (pe.Rank()+8)%p, 0)
					pe.Barrier()
				}
			})
			close(stop)
			wg.Wait()
			if rt.DegradeLinkOf(w, "no-such-link", 0.5) {
				t.Error("DegradeLink accepted an unknown link name")
			}
		})
	}
}

// TestDegradedRailSlowsTransfers pins the modeled effect: the same
// cross-node workload priced after degrading both IB rails to 10% takes
// strictly longer than on the healthy fabric.
func TestDegradedRailSlowsTransfers(t *testing.T) {
	for name, mk := range degradeWorlds() {
		t.Run(name, func(t *testing.T) {
			run := func(degrade bool) float64 {
				w := mk()
				if degrade {
					for _, link := range []string{"n0.nic0.ib>", "n0.nic1.ib>", "n1.nic0.ib>", "n1.nic1.ib>"} {
						if !rt.DegradeLinkOf(w, link, 0.1) {
							t.Fatalf("cannot degrade %s", link)
						}
					}
				}
				const n = 1 << 14
				seg := w.AllocSymmetric(4 * n)
				p := w.NumPE()
				w.Run(func(pe rt.PE) {
					buf := make([]float32, n)
					pe.Get(buf, seg, (pe.Rank()+8)%p, 0)
					pe.Barrier()
				})
				return w.PredictedSeconds()
			}
			healthy, degraded := run(false), run(true)
			if degraded <= healthy {
				t.Fatalf("degraded rails predicted %.3gs, healthy %.3gs — degrade had no effect", degraded, healthy)
			}
		})
	}
}
