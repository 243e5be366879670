package fabric_test

import (
	"encoding/binary"
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
	}
	for _, c := range cases {
		if got := routeFingerprint(c.f()); got != c.want {
			t.Errorf("%s: route fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
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
