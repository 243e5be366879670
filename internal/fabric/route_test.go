package fabric_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"slicing/internal/fabric"
	"slicing/internal/simnet"
)

// routeFingerprint is FNV-1a over every ordered PE pair's route: its
// length, its link ids in traversal order, and its RouteLatency bits. Any
// change to a path choice (an ECMP tie broken differently) or to a
// latency's rounding moves it.
func routeFingerprint(f *fabric.Fabric) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	p := f.NumPE()
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			route := f.Route(src, dst)
			put(uint64(len(route)))
			for _, li := range route {
				put(uint64(li))
			}
			put(math.Float64bits(f.RouteLatency(src, dst)))
		}
	}
	return h.Sum64()
}

// TestRouteFingerprint pins every route and route latency of the preset
// fabrics, so a change to how Freeze computes or stores routes must
// reproduce them bit for bit.
func TestRouteFingerprint(t *testing.T) {
	cases := []struct {
		name string
		f    func() *fabric.Fabric
		want uint64
	}{
		{"H100FatTree(2,8,2)", func() *fabric.Fabric { return fabric.H100FatTree(2, 8, 2) }, 0xec8d617ae5fa3aa5},
		{"H100FatTree(16,8,2)", func() *fabric.Fabric { return fabric.H100FatTree(16, 8, 2) }, 0xab77ef1372be61e5},
		{"H100FatTree(4,1,1)", func() *fabric.Fabric { return fabric.H100FatTree(4, 1, 1) }, 0x24493d54330db825},
		{"PVCNode", fabric.PVCNode, 0x2e2ab4ac7fb162ad},
		{"H100Node", fabric.H100Node, 0xec73aec40e2fd225},
		{"Degenerate(H100)", func() *fabric.Fabric { return fabric.Degenerate(simnet.PresetH100()) }, 0x2968d2e98957ae0d},
		{"H100FatTree(16,4,2)", func() *fabric.Fabric { return fabric.H100FatTree(16, 4, 2) }, 0x65bb43294064999d},
		{"H100FatTree(8,8,1)", func() *fabric.Fabric { return fabric.H100FatTree(8, 8, 1) }, 0xdec614d1067616a5},
		{"EqualDistanceSwitches", equalDistanceSwitches, 0xda8337c20432afd5},
		{"ParallelZeroLatencyLinks", parallelZeroLatencyLinks, 0x74451c00797916eb},
		{"ZeroLatencyDip", zeroLatencyDip, 0xbcc179504daea609},
	}
	for _, c := range cases {
		if got := routeFingerprint(c.f()); got != c.want {
			t.Errorf("%s: route fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}

// The hand-built fabrics below put several equal-cost paths over
// zero-latency links into one PE, the regime where whether a PE counts as
// already finalized decides which equal-cost predecessors it keeps. Node
// ids are assigned in call order, and they break exact distance ties.

// equalDistanceSwitches: switches s1 and s3 sit at the same distance from
// pe0 and both reach pe1 to pe5 over zero-latency links. pe1's id lies
// between the switches' ids, the others' above both.
func equalDistanceSwitches() *fabric.Fabric {
	f := fabric.New("equal-distance switches", 1e12)
	pe0 := f.AddPE("pe0", 0)
	s1 := f.AddSwitch("s1")
	pes := []int{f.AddPE("pe1", 0)}
	s3 := f.AddSwitch("s3")
	for i := 2; i <= 5; i++ {
		pes = append(pes, f.AddPE(fmt.Sprintf("pe%d", i), 0))
	}
	f.BiConnect(pe0, s1, 1e9, 1e-6, "pe0.s1")
	f.BiConnect(pe0, s3, 1e9, 1e-6, "pe0.s3")
	for _, pe := range pes {
		for _, sw := range []int{s1, s3} {
			f.BiConnect(pe, sw, 1e9, 0, fmt.Sprintf("%d.%d", pe, sw))
		}
	}
	return f.Freeze()
}

// parallelZeroLatencyLinks: one switch reaches a lower-id PE over two
// parallel zero-latency links, so the second link meets the PE at the
// switch's own distance while the switch is still being expanded.
func parallelZeroLatencyLinks() *fabric.Fabric {
	f := fabric.New("parallel zero-latency links", 1e12)
	pe0 := f.AddPE("pe0", 0)
	pe1 := f.AddPE("pe1", 0)
	sw := f.AddSwitch("sw")
	f.BiConnect(pe0, sw, 1e9, 1e-6, "pe0.sw")
	f.BiConnect(sw, pe1, 1e9, 0, "sw.pe1.a")
	f.BiConnect(sw, pe1, 1e9, 0, "sw.pe1.b")
	return f.Freeze()
}

// zeroLatencyDip: w reaches u over a zero-latency link, and u has a
// lower id than pe1, which s1 already reached at the same distance. u is
// therefore expanded after pe1 would have left a heap that held both,
// though u's (distance, id) key is the smaller one.
func zeroLatencyDip() *fabric.Fabric {
	f := fabric.New("zero-latency dip", 1e12)
	pe0 := f.AddPE("pe0", 0)
	s1 := f.AddSwitch("s1")
	u := f.AddSwitch("u")
	pe1 := f.AddPE("pe1", 0)
	w := f.AddSwitch("w")
	f.BiConnect(pe0, s1, 1e9, 1e-6, "pe0.s1")
	f.BiConnect(pe0, w, 1e9, 1e-6, "pe0.w")
	f.BiConnect(s1, pe1, 1e9, 0, "s1.pe1")
	f.BiConnect(w, u, 1e9, 0, "w.u")
	f.BiConnect(u, pe1, 1e9, 0, "u.pe1")
	return f.Freeze()
}

// TestFatTreeFreezeAllocFreePerPair bounds building a 128-GPU fat-tree:
// Freeze allocates per source and per node, never per PE pair (16 384
// pairs here), so the count stays far below one allocation a route.
func TestFatTreeFreezeAllocFreePerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const limit = 3000
	if got := testing.AllocsPerRun(3, func() { fabric.H100FatTree(16, 8, 2) }); got > limit {
		t.Errorf("H100FatTree(16,8,2) allocates %v objects, want at most %d", got, limit)
	}
}

// Routes from one source share one array, so a route's capacity must end
// at its length: appending to Route(0,1) copies it and leaves its
// neighbour Route(0,2) intact.
func TestRouteAppendDoesNotAlias(t *testing.T) {
	f := fabric.H100FatTree(2, 8, 2)
	want := append([]int(nil), f.Route(0, 2)...)
	grown := append(f.Route(0, 1), -1)
	grown[len(grown)-1] = -2
	got := f.Route(0, 2)
	if len(got) != len(want) {
		t.Fatalf("Route(0,2) has %d links after appending to Route(0,1), want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Route(0,2)[%d] = %d after appending to Route(0,1), want %d", i, got[i], want[i])
		}
	}
}

// Freeze routes sources on several goroutines, but an unreachable pair
// still panics in the caller, naming the lowest source that has one.
func TestFreezePanicsOnUnreachablePE(t *testing.T) {
	f := fabric.New("one-way", 1e12)
	sw := f.AddSwitch("sw")
	for i := 0; i < 4; i++ {
		pe := f.AddPE(fmt.Sprintf("pe%d", i), 0)
		f.Connect(pe, sw, 1e9, 1e-6, fmt.Sprintf("pe%d.up", i))
		if i < 2 {
			f.Connect(sw, pe, 1e9, 1e-6, fmt.Sprintf("pe%d.down", i))
		}
	}
	defer func() {
		want := "fabric one-way: PE 0 cannot reach PE 2"
		if got := recover(); got != want {
			t.Errorf("Freeze panicked with %v, want %q", got, want)
		}
	}()
	f.Freeze()
}
