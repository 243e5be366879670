package gpubackend_test

import (
	"fmt"
	"reflect"
	"testing"

	"slicing/internal/bench"
	"slicing/internal/fabric"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/simnet"
	"slicing/internal/universal"
)

// timedSignals is everything a timed world reports about its schedule.
type timedSignals struct {
	Seconds float64
	Stream  rt.StreamStats
	Links   []rt.LinkStats
}

func signalsOf(w rt.TimedWorld) timedSignals {
	return timedSignals{w.PredictedSeconds(), w.StreamStats(), w.FabricLinkStats()}
}

// contendedVictim is a raw PE program in which ranks 1 and 2 accumulate
// into rank 0 over the same NVLink port while rank 0 computes, so both
// senders contend for one link and for the victim's compute engine (H100
// models accumulate/GEMM interference). Each rank issues from one
// goroutine; nothing orders the senders against each other.
func contendedVictim() timedSignals {
	sys := universal.H100FabricSystem()
	w := gpubackend.New(sys.Topo, sys.Dev).NewWorld(sys.Topo.NumPE()).(rt.TimedWorld)
	const n = 1 << 16
	seg := w.AllocSymmetric(n)
	w.Run(func(pe rt.PE) {
		buf := make([]float32, n)
		switch pe.Rank() {
		case 0:
			for i := 0; i < 4; i++ {
				rt.ChargeGemm(pe, 512, 512, 512)
			}
		case 1, 2:
			f := pe.AccumulateAddAsync(buf, seg, 0, 0)
			pe.AccumulateAdd(buf[:n/2], seg, 0, 0)
			pe.GetAsync(buf, seg, 0, 0).Wait()
			f.Wait()
		}
		pe.Barrier()
	})
	return signalsOf(w)
}

// TestTimedRunsAreDeterministic: a timed run whose PEs each issue from
// one goroutine — the executor at MaxInflight 1, an incast storm, a raw
// program racing two senders into one victim — prices bit-identically on
// every run, whatever order the PEs' goroutines happen to run in.
func TestTimedRunsAreDeterministic(t *testing.T) {
	const runs = 10
	cases := map[string]func() any{
		"contended-victim": func() any { return contendedVictim() },
		"incast": func() any {
			_, w := bench.IncastStorm(fabric.H100FatTree(9, 1, 1).Topology(), gpusim.PresetH100Device(), 8, 1<<16,
				func(int) int { return 0 })
			return signalsOf(w.(rt.TimedWorld))
		},
		"incast-scalar": func() any {
			_, w := bench.IncastStorm(simnet.PresetH100Cluster(9), gpusim.PresetH100Device(), 8, 1<<16,
				func(int) int { return 0 })
			return signalsOf(w.(rt.TimedWorld))
		},
	}
	for name, sys := range map[string]universal.SimSystem{
		"pvc": universal.PVCSystem(), "h100": universal.H100System(), "h100-fabric": universal.H100FabricSystem(),
	} {
		cases["RunUATimed/"+name] = func() any {
			cfg := universal.DefaultConfig()
			cfg.PrefetchDepth = 4
			cfg.MaxInflight = 1
			return bench.RunUATimed(sys, 256, 256, 256, bench.PartBlock, 1, 1, cfg)
		}
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			first := run()
			for i := 1; i < runs; i++ {
				if got := run(); !reflect.DeepEqual(got, first) {
					t.Fatalf("run %d differs from run 0:\n got  %s\n want %s", i, brief(got), brief(first))
				}
			}
		})
	}
}

// brief prints a result without its per-link table, which is long.
func brief(v any) string {
	if s, ok := v.(timedSignals); ok {
		return fmt.Sprintf("%.17g s, %+v, %d links", s.Seconds, s.Stream, len(s.Links))
	}
	return fmt.Sprintf("%+v", v)
}
