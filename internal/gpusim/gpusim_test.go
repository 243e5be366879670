package gpusim

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestDevicePresetsMatchTable2(t *testing.T) {
	pvc := PresetPVCDevice()
	if pvc.PeakFlops != 22.7e12 {
		t.Fatalf("PVC peak = %g, want 22.7 TFLOPs", pvc.PeakFlops)
	}
	h := PresetH100Device()
	if h.PeakFlops != 67e12 {
		t.Fatalf("H100 peak = %g, want 67 TFLOPs", h.PeakFlops)
	}
	if !h.AccumComputeInterference {
		t.Fatal("H100 preset should model accumulate/GEMM interference (§5.2)")
	}
	if pvc.AccumComputeInterference {
		t.Fatal("PVC preset should not model accumulate/GEMM interference")
	}
	if pvc.AccumBWFactor != 0.8 {
		t.Fatalf("PVC accumulate factor = %g, want 0.8 (§5.1)", pvc.AccumBWFactor)
	}
}

func TestGemmTimeLowerBoundedByRoofline(t *testing.T) {
	d := PresetH100Device()
	m, n, k := 4096, 4096, 4096
	flops := 2.0 * 4096 * 4096 * 4096
	if got := d.GemmTime(m, n, k); got < flops/d.PeakFlops {
		t.Fatalf("GemmTime %g below compute roofline %g", got, flops/d.PeakFlops)
	}
}

func TestGemmEfficiencyShapePenalty(t *testing.T) {
	d := PresetPVCDevice()
	square := d.GemmEfficiency(4096, 4096, 4096)
	thin := d.GemmEfficiency(64, 64, 49152)
	if square <= thin {
		t.Fatalf("square GEMM efficiency %g should beat thin-panel %g", square, thin)
	}
	if square < 0.8 {
		t.Fatalf("large square GEMM should be near peak, got %g", square)
	}
	if square > 1.0+1e-9 {
		t.Fatalf("efficiency cannot exceed 1, got %g", square)
	}
}

func TestGemmTimeZeroForDegenerateShapes(t *testing.T) {
	d := PresetPVCDevice()
	if d.GemmTime(0, 10, 10) != 0 || d.GemmTime(10, 0, 10) != 0 || d.GemmTime(10, 10, 0) != 0 {
		t.Fatal("degenerate GEMM should take zero time")
	}
}

// Property: GEMM time is monotone in each dimension.
func TestGemmTimeMonotone(t *testing.T) {
	d := PresetH100Device()
	f := func(m0, n0, k0 uint8) bool {
		m, n, k := int(m0)+1, int(n0)+1, int(k0)+1
		return d.GemmTime(m+64, n, k) >= d.GemmTime(m, n, k) &&
			d.GemmTime(m, n+64, k) >= d.GemmTime(m, n, k) &&
			d.GemmTime(m, n, k+64) >= d.GemmTime(m, n, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumTimeSlowerThanCopy(t *testing.T) {
	d := PresetPVCDevice()
	bytes, linkBW := 1e9, 26.5e9
	copyT := bytes / linkBW
	accumT := d.AccumTime(bytes, linkBW)
	ratio := copyT / accumT
	if math.Abs(ratio-0.8) > 1e-9 {
		t.Fatalf("accumulate should run at 0.8x copy bandwidth, ratio = %g", ratio)
	}
}

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	r := e.Run()
	if r.Makespan != 0 {
		t.Fatalf("empty makespan = %g", r.Makespan)
	}
}

func TestEngineSerialChain(t *testing.T) {
	e := NewEngine()
	res := e.AddResource("compute")
	a := e.AddOp("a", OpCompute, 1.0, nil, []ResourceID{res})
	b := e.AddOp("b", OpCompute, 2.0, []OpID{a}, []ResourceID{res})
	e.AddOp("c", OpCompute, 3.0, []OpID{b}, []ResourceID{res})
	r := e.Run()
	if r.Makespan != 6.0 {
		t.Fatalf("chain makespan = %g, want 6", r.Makespan)
	}
	if r.Timings[1].Start != 1.0 || r.Timings[2].Start != 3.0 {
		t.Fatalf("chain starts wrong: %+v", r.Timings)
	}
}

func TestEngineIndependentOpsOverlapOnDistinctResources(t *testing.T) {
	e := NewEngine()
	r1 := e.AddResource("compute")
	r2 := e.AddResource("net")
	e.AddOp("gemm", OpCompute, 5.0, nil, []ResourceID{r1})
	e.AddOp("fetch", OpComm, 5.0, nil, []ResourceID{r2})
	r := e.Run()
	if r.Makespan != 5.0 {
		t.Fatalf("overlapped makespan = %g, want 5 (full overlap)", r.Makespan)
	}
}

func TestEngineResourceSerialization(t *testing.T) {
	e := NewEngine()
	link := e.AddResource("link")
	e.AddOp("x1", OpComm, 2.0, nil, []ResourceID{link})
	e.AddOp("x2", OpComm, 2.0, nil, []ResourceID{link})
	e.AddOp("x3", OpComm, 2.0, nil, []ResourceID{link})
	r := e.Run()
	if r.Makespan != 6.0 {
		t.Fatalf("serialized makespan = %g, want 6", r.Makespan)
	}
	if got := r.Utilization(link); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("link utilization = %g, want 1.0", got)
	}
}

func TestEngineMultiResourceOp(t *testing.T) {
	// A transfer occupies both egress and ingress; a second transfer sharing
	// only the egress must wait.
	e := NewEngine()
	eg := e.AddResource("egress0")
	in1 := e.AddResource("ingress1")
	in2 := e.AddResource("ingress2")
	e.AddOp("t1", OpComm, 3.0, nil, []ResourceID{eg, in1})
	e.AddOp("t2", OpComm, 3.0, nil, []ResourceID{eg, in2})
	r := e.Run()
	if r.Makespan != 6.0 {
		t.Fatalf("shared-egress makespan = %g, want 6", r.Makespan)
	}
}

func TestEngineHotSpotVsOffsetSchedules(t *testing.T) {
	// Reproduces the iteration-offset effect of §4.2 in miniature: 3 PEs
	// each fetch one tile from sources (0,0,0) [hot spot] vs (0,1,2)
	// [offset]. The hot-spot schedule serializes on PE0's egress port.
	build := func(sources []int) float64 {
		e := NewEngine()
		egress := make([]ResourceID, 3)
		ingress := make([]ResourceID, 3)
		for i := 0; i < 3; i++ {
			egress[i] = e.AddResource("eg")
			ingress[i] = e.AddResource("in")
		}
		for pe, src := range sources {
			e.AddOp("get", OpComm, 1.0, nil, []ResourceID{egress[src], ingress[pe]})
		}
		return e.Run().Makespan
	}
	hot := build([]int{0, 0, 0})
	offset := build([]int{0, 1, 2})
	if hot != 3.0 || offset != 1.0 {
		t.Fatalf("hot-spot = %g (want 3), offset = %g (want 1)", hot, offset)
	}
}

func TestEngineDiamondDependencies(t *testing.T) {
	e := NewEngine()
	r1 := e.AddResource("a")
	r2 := e.AddResource("b")
	src := e.AddOp("src", OpOther, 1.0, nil, nil)
	l := e.AddOp("left", OpCompute, 2.0, []OpID{src}, []ResourceID{r1})
	rt := e.AddOp("right", OpCompute, 4.0, []OpID{src}, []ResourceID{r2})
	e.AddOp("sink", OpOther, 1.0, []OpID{l, rt}, nil)
	r := e.Run()
	if r.Makespan != 6.0 { // 1 + max(2,4) + 1
		t.Fatalf("diamond makespan = %g, want 6", r.Makespan)
	}
}

func TestEngineProgramOrderTieBreak(t *testing.T) {
	e := NewEngine()
	res := e.AddResource("r")
	first := e.AddOp("first", OpCompute, 1.0, nil, []ResourceID{res})
	second := e.AddOp("second", OpCompute, 1.0, nil, []ResourceID{res})
	r := e.Run()
	if r.Timings[first].Start != 0 || r.Timings[second].Start != 1 {
		t.Fatalf("program order not respected: %+v", r.Timings)
	}
}

func TestEngineInvalidDepPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("forward dep should panic")
		}
	}()
	e.AddOp("bad", OpCompute, 1.0, []OpID{5}, nil)
}

func TestEngineNegativeDurationPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration should panic")
		}
	}()
	e.AddOp("bad", OpCompute, -1.0, nil, nil)
}

// Property: makespan is at least the critical path length and at least the
// busiest resource's total work.
func TestEngineMakespanLowerBounds(t *testing.T) {
	e := NewEngine()
	res := []ResourceID{e.AddResource("r0"), e.AddResource("r1"), e.AddResource("r2")}
	var prev OpID = -1
	totalPerRes := make([]float64, 3)
	critical := 0.0
	for i := 0; i < 30; i++ {
		dur := float64(i%5) * 0.5
		r := res[i%3]
		var deps []OpID
		if i%4 == 0 && prev >= 0 {
			deps = []OpID{prev}
		}
		id := e.AddOp("op", OpCompute, dur, deps, []ResourceID{r})
		totalPerRes[r] += dur
		if i%4 == 0 {
			critical += dur
		}
		prev = id
	}
	result := e.Run()
	for r, busy := range totalPerRes {
		if result.Makespan < busy-1e-9 {
			t.Fatalf("makespan %g below resource %d busy time %g", result.Makespan, r, busy)
		}
	}
	// Timings must respect dependencies and resource exclusivity.
	for i, tm := range result.Timings {
		if tm.End < tm.Start {
			t.Fatalf("op %d ends before it starts", i)
		}
	}
}

func TestEngineRunTwiceSameResult(t *testing.T) {
	e := NewEngine()
	r := e.AddResource("r")
	e.AddOp("a", OpCompute, 1.5, nil, []ResourceID{r})
	e.AddOp("b", OpCompute, 2.5, nil, []ResourceID{r})
	m1 := e.Run().Makespan
	m2 := e.Run().Makespan
	if m1 != m2 {
		t.Fatalf("Run not deterministic: %g vs %g", m1, m2)
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool()
	b1 := p.Get(100)
	if len(b1) != 100 {
		t.Fatalf("Get len = %d", len(b1))
	}
	b1[0] = 42
	p.Put(b1)
	b2 := p.Get(100)
	if b2[0] != 0 {
		t.Fatal("pool must return zeroed buffers")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Allocs != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 alloc", s)
	}
}

func TestPoolHighWater(t *testing.T) {
	p := NewPool()
	a := p.Get(1000)
	b := p.Get(1000)
	p.Put(a)
	p.Put(b)
	s := p.Stats()
	if s.Live != 0 {
		t.Fatalf("live = %d after returning all", s.Live)
	}
	if s.HighWater < 2000 {
		t.Fatalf("high water = %d, want >= 2000", s.HighWater)
	}
}

func TestPoolZeroAndNil(t *testing.T) {
	p := NewPool()
	if buf := p.Get(0); buf != nil {
		t.Fatal("Get(0) should be nil")
	}
	p.Put(nil) // must not panic
}

func TestPoolDropsForeignBuffers(t *testing.T) {
	p := NewPool()
	p.Put(make([]float32, 100)) // 100 is not a bucket size
	if got := p.BucketSizes(); len(got) != 0 {
		t.Fatalf("foreign buffer entered pool: %v", got)
	}
}

func TestRoundSizeBuckets(t *testing.T) {
	if roundSize(1) != 64 {
		t.Fatalf("roundSize(1) = %d", roundSize(1))
	}
	if roundSize(64) != 64 {
		t.Fatalf("roundSize(64) = %d", roundSize(64))
	}
	if roundSize(65) != 128 {
		t.Fatalf("roundSize(65) = %d", roundSize(65))
	}
	f := func(n uint16) bool {
		return roundSize(int(n)+1) >= int(n)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Many goroutines get and put mixed sizes at once (every PE's chain crew
// does, every step): per-bucket locks and atomic counters must keep the
// books exact — nothing live at the end, every get counted as an alloc or
// a hit, a high-water mark no lower than a demand that provably coexisted,
// buckets listed in ascending order — and -race must stay quiet.
func TestPoolConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		rounds  = 300
	)
	sizes := []int{1, 64, 65, 1000, 1024, 4096, 4097, 7488, 32 * 32, 100000}
	p := NewPool()
	// Every worker holds one 100000-element buffer across a barrier, so
	// workers × roundSize(100000) elements are live at the same moment.
	var holding, done sync.WaitGroup
	holding.Add(workers)
	done.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer done.Done()
			big := p.GetUninit(100000)
			holding.Done()
			holding.Wait()
			p.Put(big)
			held := make([][]float32, 0, 4)
			for i := 0; i < rounds; i++ {
				n := sizes[(i*7+g)%len(sizes)]
				var buf []float32
				if i%2 == 0 {
					buf = p.Get(n)
					for _, v := range buf {
						if v != 0 {
							t.Errorf("Get(%d) returned a dirty buffer", n)
							break
						}
					}
				} else {
					buf = p.GetUninit(n)
				}
				if len(buf) != n {
					t.Errorf("Get(%d) returned %d elements", n, len(buf))
				}
				for j := range buf {
					buf[j] = float32(g + 1)
				}
				if held = append(held, buf); len(held) == cap(held) {
					for _, b := range held {
						p.Put(b)
					}
					held = held[:0]
				}
			}
			for _, b := range held {
				p.Put(b)
			}
		}(g)
	}
	done.Wait()
	s := p.Stats()
	if s.Live != 0 {
		t.Errorf("live = %d after every buffer was returned", s.Live)
	}
	if gets := int64(workers * (rounds + 1)); s.Allocs+s.Hits != gets {
		t.Errorf("allocs %d + hits %d = %d, want %d gets", s.Allocs, s.Hits, s.Allocs+s.Hits, gets)
	}
	if min := workers * roundSize(100000); s.HighWater < min {
		t.Errorf("high water = %d, want >= %d (all workers held a 100000-element buffer at once)", s.HighWater, min)
	}
	got := p.BucketSizes()
	if !sort.IntsAreSorted(got) || len(got) == 0 {
		t.Errorf("BucketSizes() = %v, want a non-empty ascending list", got)
	}
	for _, size := range got {
		if roundSize(size) != size {
			t.Errorf("BucketSizes() lists %d, which is not a size class", size)
		}
	}
}

// roundSize is the bucketed size of a request for n elements.
func roundSize(n int) int {
	if n <= 0 {
		return 0
	}
	return bucketSizes[bucketFor(n)]
}
