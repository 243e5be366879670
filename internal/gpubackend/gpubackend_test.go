package gpubackend_test

import (
	"math"
	"testing"

	"slicing/internal/distmat"
	"slicing/internal/gpubackend"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/simnet"
	"slicing/internal/universal"
)

// flatDevice is a device model with no shape penalty and no launch
// overhead, so op durations are exact closed forms.
func flatDevice(interference bool) gpusim.Device {
	return gpusim.Device{
		Name: "flat", PeakFlops: 1e12, MemBW: 1e12,
		AccumBWFactor:            1,
		AccumComputeInterference: interference,
	}
}

// pairTopo is a 2-PE zero-latency link at 1 GB/s.
func pairTopo() simnet.Topology {
	return simnet.NewUniform(2, 1e9, 1e12, 0, "pair")
}

func approx(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12+1e-9*math.Abs(want)
}

// TestAsyncGetsQueueOnCopyEngine pins the queue-depth effect: two
// back-to-back async gets issued by one PE serialize on its copy-in engine,
// so the second completes a full transfer later and its wait is recorded as
// queue delay.
func TestAsyncGetsQueueOnCopyEngine(t *testing.T) {
	w := gpubackend.New(pairTopo(), flatDevice(false)).NewWorld(2).(*gpubackend.World)
	const n = 250 // 1000 bytes over 1 GB/s = 1 µs per get
	const dur = 1e-6
	seg := w.AllocSymmetric(n)
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		buf1, buf2 := make([]float32, n), make([]float32, n)
		f1 := pe.GetAsync(buf1, seg, 1, 0)
		f2 := pe.GetAsync(buf2, seg, 1, 0)
		f1.Wait()
		f2.Wait()
	})
	if got := w.PredictedSeconds(); !approx(got, 2*dur) {
		t.Fatalf("two serialized 1µs gets should end at 2µs, got %g", got)
	}
	ss := w.StreamStats()
	if !approx(ss.QueueDelaySeconds, dur) {
		t.Fatalf("second get should have queued for %g, recorded %g", dur, ss.QueueDelaySeconds)
	}
	if ss.StreamOps != 2 {
		t.Fatalf("expected 2 stream ops, got %d", ss.StreamOps)
	}
}

// TestRemoteAccumulateOccupiesVictimCompute pins the §5.2 interference
// model: an accumulate launched into a device with
// AccumComputeInterference set occupies that device's compute engine, so a
// GEMM the victim runs concurrently starts only after the accumulate
// kernel drains. The same schedule on a non-interference device overlaps
// fully.
func TestRemoteAccumulateOccupiesVictimCompute(t *testing.T) {
	const n = 500 // 2000 bytes over 1 GB/s at factor 1 = 2 µs accumulate
	const accumDur = 2e-6
	const gm = 100 // 100³ GEMM at 1 TFLOP/s = 2e6 flops / 1e12 = 2 µs
	const gemmDur = 2e-6

	run := func(interference bool) *gpubackend.World {
		w := gpubackend.New(pairTopo(), flatDevice(interference)).NewWorld(2).(*gpubackend.World)
		seg := w.AllocSymmetric(n)
		w.Run(func(pe rt.PE) {
			if pe.Rank() == 0 {
				// Launch the accumulate and only then release rank 1, without
				// advancing any host clock (the future is waited later), so
				// rank 1's GEMM is issued at host time 0 while the accumulate
				// kernel occupies (or not) its compute engine.
				f := pe.AccumulateAddAsync(make([]float32, n), seg, 1, 0)
				pe.Barrier()
				f.Wait()
			} else {
				pe.Barrier()
				rt.ChargeGemm(pe, gm, gm, gm)
			}
		})
		return w
	}

	victim := run(true)
	if got := victim.PredictedSeconds(); !approx(got, accumDur+gemmDur) {
		t.Fatalf("interference: GEMM should wait out the accumulate (%g), got %g", accumDur+gemmDur, got)
	}
	ss := victim.StreamStats()
	if !approx(ss.AccumInterferenceSeconds, accumDur) {
		t.Fatalf("interference seconds = %g, want %g", ss.AccumInterferenceSeconds, accumDur)
	}
	if !approx(ss.QueueDelaySeconds, accumDur) {
		t.Fatalf("the delayed GEMM should record %g queue delay, got %g", accumDur, ss.QueueDelaySeconds)
	}

	clean := run(false)
	if got := clean.PredictedSeconds(); !approx(got, math.Max(accumDur, gemmDur)) {
		t.Fatalf("no interference: accumulate and GEMM should overlap to %g, got %g", math.Max(accumDur, gemmDur), got)
	}
	if ss := clean.StreamStats(); ss.AccumInterferenceSeconds != 0 {
		t.Fatalf("non-interference device recorded interference %g", ss.AccumInterferenceSeconds)
	}
}

// TestCopyEngineCountFromDeviceModel pins the per-device DMA engine
// satellite: the same pair of back-to-back local gets serializes on a
// one-engine device and overlaps fully on a two-engine device (local
// copies touch no network ports, so the engines are the only resource).
func TestCopyEngineCountFromDeviceModel(t *testing.T) {
	const n = 250
	dev := flatDevice(false)
	dev.MemBW = 1e9 // 1000 bytes per local get = 1 µs
	const dur = 1e-6

	run := func(engines int) float64 {
		d := dev
		d.CopyInEngines = engines
		w := gpubackend.New(pairTopo(), d).NewWorld(2).(*gpubackend.World)
		seg := w.AllocSymmetric(n)
		w.Run(func(pe rt.PE) {
			if pe.Rank() != 0 {
				return
			}
			f1 := pe.GetAsync(make([]float32, n), seg, 0, 0)
			f2 := pe.GetAsync(make([]float32, n), seg, 0, 0)
			f1.Wait()
			f2.Wait()
		})
		return w.PredictedSeconds()
	}

	if got := run(1); !approx(got, 2*dur) {
		t.Fatalf("one copy engine: two local gets should serialize to %g, got %g", 2*dur, got)
	}
	if got := run(2); !approx(got, dur) {
		t.Fatalf("two copy engines: two local gets should overlap to %g, got %g", dur, got)
	}
	h100, pvc := gpusim.PresetH100Device(), gpusim.PresetPVCDevice()
	if h100.NumCopyInEngines() <= pvc.NumCopyInEngines() ||
		h100.NumCopyOutEngines() <= pvc.NumCopyOutEngines() {
		t.Fatalf("H100 must model more DMA engines than a PVC tile: %d/%d vs %d/%d",
			h100.NumCopyInEngines(), h100.NumCopyOutEngines(),
			pvc.NumCopyInEngines(), pvc.NumCopyOutEngines())
	}
}

// TestGemmChargeMatchesDeviceModel pins the executor's ChargeGemm path: a
// 1-PE world multiplying two local tiles must spend at least the device
// model's GEMM time and no more than GEMM + local accumulate + launch
// overheads.
func TestGemmChargeMatchesDeviceModel(t *testing.T) {
	topo := simnet.NewUniform(1, 1e9, 1e12, 0, "single")
	dev := flatDevice(false)
	w := gpubackend.New(topo, dev).NewWorld(1).(*gpubackend.World)
	a := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	b := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	c := distmat.New(w, 32, 32, distmat.RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		universal.Multiply(pe, c, a, b, universal.DefaultConfig())
	})
	gemm := dev.GemmTime(32, 32, 32)
	pred := w.PredictedSeconds()
	if pred < gemm {
		t.Fatalf("predicted %g is below the single GEMM's device time %g", pred, gemm)
	}
	upper := gemm + 2*4*32*32/dev.MemBW + 10*dev.LaunchOverhead
	if pred > upper*1.01 {
		t.Fatalf("predicted %g exceeds modeled work %g", pred, upper)
	}
}

// TestResetTimeRewindsModelOnly checks ResetTime zeroes clocks, engines,
// and delay accounting without touching data or traffic counters.
func TestResetTimeRewindsModelOnly(t *testing.T) {
	w := gpubackend.New(pairTopo(), flatDevice(false)).NewWorld(2).(*gpubackend.World)
	const n = 16
	seg := w.AllocSymmetric(n)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Put(make([]float32, n), seg, 1, 0)
		}
	})
	if w.PredictedSeconds() <= 0 {
		t.Fatal("put charged no modeled time")
	}
	before := w.Stats()
	w.ResetTime()
	if got := w.PredictedSeconds(); got != 0 {
		t.Fatalf("ResetTime left %g on the clock", got)
	}
	if ss := w.StreamStats(); ss.StreamOps != 0 || ss.QueueDelaySeconds != 0 {
		t.Fatalf("ResetTime left stream stats %+v", ss)
	}
	if after := w.Stats(); after != before {
		t.Fatalf("ResetTime changed traffic counters: %+v -> %+v", before, after)
	}
}

// TestWorldSizeMustMatchTopology pins the constructor contract: a world
// is sized to its topology.
func TestWorldSizeMustMatchTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for world size != topology size")
		}
	}()
	gpubackend.New(pairTopo(), flatDevice(false)).NewWorld(3)
}

// testWorld returns a timed world over a p-PE uniform fabric of 1 GB/s
// links with zero latency and a flat device: moving n float32 remotely
// takes 4n nanoseconds.
func testWorld(p int) *gpubackend.World {
	topo := simnet.NewUniform(p, 1e9, 1e12, 0, "test-fabric")
	return gpubackend.New(topo, flatDevice(false)).NewWorld(p).(*gpubackend.World)
}

const secPerFloat = 4e-9 // 4 bytes over 1 GB/s

func TestSyncGetAdvancesClock(t *testing.T) {
	w := testWorld(2)
	seg := w.AllocSymmetric(1000)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			dst := make([]float32, 1000)
			pe.Get(dst, seg, 1, 0)
		}
	})
	want := 1000 * secPerFloat
	if got := w.PETime(0); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("clock after sync get = %g, want %g", got, want)
	}
	if got := w.PETime(1); got != 0 {
		t.Fatalf("target clock moved to %g; one-sided ops must not consume target time", got)
	}
}

func TestRemoteOpsMoveRealData(t *testing.T) {
	w := testWorld(2)
	seg := w.AllocSymmetric(4)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Put([]float32{1, 2, 3, 4}, seg, 1, 0)
			pe.AccumulateAdd([]float32{10, 10, 10, 10}, seg, 1, 0)
		}
		pe.Barrier()
		got := make([]float32, 4)
		pe.Get(got, seg, 1, 0)
		if got[0] != 11 || got[3] != 14 {
			t.Errorf("rank %d read %v, want [11 12 13 14]", pe.Rank(), got)
		}
	})
}

func TestEgressPortContentionSerializes(t *testing.T) {
	// Ranks 1 and 2 both pull 1000 floats from rank 0: the two transfers
	// share rank 0's egress port, so one of them finishes at 2× the
	// contention-free time.
	w := testWorld(3)
	seg := w.AllocSymmetric(1000)
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			dst := make([]float32, 1000)
			pe.Get(dst, seg, 0, 0)
		}
	})
	one := 1000 * secPerFloat
	if got, want := w.PredictedSeconds(), 2*one; math.Abs(got-want) > want*1e-9 {
		t.Fatalf("contended makespan = %g, want %g (two serialized transfers)", got, want)
	}
	first, second := w.PETime(1), w.PETime(2)
	if first > second {
		first, second = second, first
	}
	if math.Abs(first-one) > one*1e-9 || math.Abs(second-2*one) > one*1e-9 {
		t.Fatalf("per-PE completion times %g, %g; want %g and %g", first, second, one, 2*one)
	}
}

func TestLocalOpsBypassPorts(t *testing.T) {
	// A local get is priced on device memory bandwidth (1 TB/s here) and
	// must not reserve network ports.
	w := testWorld(2)
	seg := w.AllocSymmetric(1000)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			dst := make([]float32, 1000)
			pe.Get(dst, seg, 0, 0)
		}
	})
	want := 4000 / 1e12
	if got := w.PETime(0); math.Abs(got-want) > want*1e-6 {
		t.Fatalf("local get time = %g, want %g", got, want)
	}
}

func TestAsyncGetDefersClockToWait(t *testing.T) {
	w := testWorld(2)
	seg := w.AllocSymmetric(1000)
	var atIssue, afterWait float64
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		dst := make([]float32, 1000)
		f := pe.GetAsync(dst, seg, 1, 0)
		atIssue = w.PETime(0)
		f.Wait()
		afterWait = w.PETime(0)
	})
	if atIssue != 0 {
		t.Fatalf("clock advanced to %g at issue; async ops must charge at Wait", atIssue)
	}
	want := 1000 * secPerFloat
	if math.Abs(afterWait-want) > want*1e-9 {
		t.Fatalf("clock after Wait = %g, want %g", afterWait, want)
	}
}

func TestAsyncOverlapsWithCompute(t *testing.T) {
	// Issue a 1000-float fetch, do 1 ms of modeled compute, then wait: the
	// transfer (4 µs) hides entirely under the compute.
	w := testWorld(2)
	seg := w.AllocSymmetric(1000)
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		dst := make([]float32, 1000)
		f := pe.GetAsync(dst, seg, 1, 0)
		rt.ChargeGemm(pe, 1000, 1000, 500) // 1e9 flops at 1 TFLOP/s
		f.Wait()
	})
	if got := w.PETime(0); math.Abs(got-1e-3) > 1e-12 {
		t.Fatalf("overlapped time = %g, want 1e-3 (transfer hidden)", got)
	}
}

func TestBarrierSyncsClocks(t *testing.T) {
	w := testWorld(4)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 2 {
			rt.ChargeGemm(pe, 1000, 1000, 250000) // 5e11 flops at 1 TFLOP/s
		}
		pe.Barrier()
		if now := w.PETime(pe.Rank()); now < 0.5 {
			t.Errorf("rank %d clock %g after barrier, want >= 0.5", pe.Rank(), now)
		}
	})
	if got := w.PredictedSeconds(); got != 0.5 {
		t.Fatalf("makespan = %g, want 0.5", got)
	}
}

func TestAccumulateGetPutPricedAsRoundTrip(t *testing.T) {
	w := testWorld(2)
	seg := w.AllocSymmetric(1000)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.AccumulateAddGetPut(make([]float32, 1000), seg, 1, 0)
		}
	})
	want := 2 * 1000 * secPerFloat
	if got := w.PETime(0); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("get+put accumulate = %g, want %g (full round trip)", got, want)
	}
}

func TestChargeGemmUsesDeviceRoofline(t *testing.T) {
	w := testWorld(1)
	dev := flatDevice(false)
	w.Run(func(pe rt.PE) {
		rt.ChargeGemm(pe, 64, 64, 64)
	})
	want := dev.GemmTime(64, 64, 64) + dev.LaunchOverhead
	if got := w.PETime(0); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("gemm charge = %g, want %g", got, want)
	}
}

func TestResetTime(t *testing.T) {
	w := testWorld(2)
	seg := w.AllocSymmetric(100)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Get(make([]float32, 100), seg, 1, 0)
		}
	})
	if w.PredictedSeconds() == 0 {
		t.Fatal("expected nonzero time before reset")
	}
	w.ResetTime()
	if got := w.PredictedSeconds(); got != 0 {
		t.Fatalf("time after reset = %g", got)
	}
}

func TestStatsDelegateToRealTraffic(t *testing.T) {
	w := testWorld(2)
	seg := w.AllocSymmetric(8)
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			pe.Get(make([]float32, 8), seg, 1, 0)
			pe.AccumulateAdd(make([]float32, 4), seg, 1, 0)
		}
	})
	s := w.Stats()
	if s.RemoteGetBytes != 32 || s.RemoteAccumBytes != 16 {
		t.Fatalf("stats = %+v, want 32 get / 16 accum bytes", s)
	}
}

// TestPresetWorldSizeMustMatchTopology pins the constructor contract on a
// paper preset: a 12-PE world over the 8-GPU H100 node panics.
func TestPresetWorldSizeMustMatchTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched world size should panic")
		}
	}()
	gpubackend.New(simnet.PresetH100(), gpusim.PresetH100Device()).NewWorld(12)
}
