package fabric_test

import (
	"math"
	"strings"
	"testing"

	"slicing/internal/fabric"
	"slicing/internal/simnet"
)

func approx(got, want float64) bool {
	return math.Abs(got-want) <= 1e-15+1e-12*math.Abs(want)
}

// chain builds pe0 → sw0 → sw1 → pe1 with distinct per-link bandwidth and
// latency, the minimal multi-hop fabric.
func chain(t *testing.T) *fabric.Fabric {
	t.Helper()
	f := fabric.New("chain", 1e12)
	a := f.AddPE("a", 0)
	b := f.AddPE("b", 0)
	s0 := f.AddSwitch("s0")
	s1 := f.AddSwitch("s1")
	f.Connect(a, s0, 100e9, 1e-6, "a.up")
	f.Connect(s0, s1, 50e9, 2e-6, "s0.s1")
	f.Connect(s1, b, 200e9, 3e-6, "s1.down")
	f.Connect(b, s1, 200e9, 3e-6, "b.up")
	f.Connect(s1, s0, 50e9, 2e-6, "s1.s0")
	f.Connect(s0, a, 100e9, 1e-6, "a.down")
	return f.Freeze()
}

// TestBottleneckPathPricing pins the adapter's scalar view of a multi-hop
// route: bandwidth is the bottleneck link's, latency the sum of hops, and
// locals run at the device-local rate.
func TestBottleneckPathPricing(t *testing.T) {
	topo := chain(t).Topology()
	if got := topo.Bandwidth(0, 1); got != 50e9 {
		t.Fatalf("bottleneck bandwidth = %g, want 50e9", got)
	}
	if got := topo.Latency(0, 1); !approx(got, 6e-6) {
		t.Fatalf("path latency = %g, want 6e-6", got)
	}
	if got := topo.Bandwidth(1, 1); got != 1e12 {
		t.Fatalf("local bandwidth = %g, want 1e12", got)
	}
	if got := topo.Latency(0, 0); got != 0 {
		t.Fatalf("local latency = %g, want 0", got)
	}
	if got := simnet.TransferTime(topo, 0, 1, 50e9); !approx(got, 1+6e-6) {
		t.Fatalf("transfer time = %g, want ~1s", got)
	}
}

// TestRoutesNeverTransitPEs checks the hardware constraint that GPUs do
// not forward fabric traffic: on every preset, every route's intermediate
// nodes are switches or NICs.
func TestRoutesNeverTransitPEs(t *testing.T) {
	for _, f := range []*fabric.Fabric{
		fabric.H100Node(), fabric.PVCNode(), fabric.H100FatTree(3, 8, 4),
		fabric.Degenerate(simnet.PresetPVC()),
	} {
		p := f.NumPE()
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				route := f.Route(src, dst)
				for i, li := range route[:max(0, len(route)-1)] {
					to := f.LinkAt(li).To
					if f.NodeAt(to).Kind == fabric.KindPE {
						t.Fatalf("%s: route %d→%d transits PE node %q at hop %d",
							f.Name(), src, dst, f.NodeAt(to).Name, i)
					}
				}
			}
		}
	}
}

// TestPVCRoutesPreferPackageBridge pins the PVC preset's routing: tiles
// of one package talk over the 230 GB/s MDFI bridge, tiles of different
// packages over their 26.5 GB/s Xe Link ports — and the two are distinct
// links, so a tile's bridge and Xe traffic no longer share one port the
// way the scalar model forces.
func TestPVCRoutesPreferPackageBridge(t *testing.T) {
	topo := fabric.PVCNode().Topology()
	if got := topo.Bandwidth(0, 1); got != 230e9 {
		t.Fatalf("intra-package bandwidth %g, want 230e9", got)
	}
	if got := topo.Latency(0, 1); !approx(got, 2e-6) {
		t.Fatalf("intra-package latency %g, want 2e-6", got)
	}
	if got := topo.Bandwidth(0, 2); got != 26.5e9 {
		t.Fatalf("inter-package bandwidth %g, want 26.5e9", got)
	}
	if got := topo.Latency(0, 2); !approx(got, 5e-6) {
		t.Fatalf("inter-package latency %g, want 5e-6", got)
	}
	scalar := simnet.PresetPVC()
	for src := 0; src < 12; src++ {
		for dst := 0; dst < 12; dst++ {
			if topo.Bandwidth(src, dst) != scalar.Bandwidth(src, dst) {
				t.Fatalf("pair (%d,%d): fabric bw %g != scalar %g",
					src, dst, topo.Bandwidth(src, dst), scalar.Bandwidth(src, dst))
			}
		}
	}
}

// TestDegenerateMatchesScalarExactly pins the degenerate construction to
// the scalar model bit-for-bit: same bandwidth, same latency, every route
// exactly [egress, pair, ingress].
func TestDegenerateMatchesScalarExactly(t *testing.T) {
	for _, topo := range []simnet.Topology{
		simnet.PresetPVC(), simnet.PresetH100(), simnet.PresetH100Cluster(2),
	} {
		ft := fabric.Degenerate(topo).Topology()
		p := topo.NumPE()
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				if ft.Bandwidth(src, dst) != topo.Bandwidth(src, dst) {
					t.Fatalf("%s (%d,%d): bandwidth %g != %g", topo.Name(), src, dst,
						ft.Bandwidth(src, dst), topo.Bandwidth(src, dst))
				}
				if ft.Latency(src, dst) != topo.Latency(src, dst) {
					t.Fatalf("%s (%d,%d): latency %g != %g", topo.Name(), src, dst,
						ft.Latency(src, dst), topo.Latency(src, dst))
				}
				if src != dst {
					if got := len(ft.RouteIDs(src, dst)); got != 3 {
						t.Fatalf("%s (%d,%d): degenerate route has %d links, want 3",
							topo.Name(), src, dst, got)
					}
				}
			}
		}
		if nm, ok := topo.(simnet.NodeMapper); ok {
			for pe := 0; pe < p; pe++ {
				if ft.NodeOf(pe) != nm.NodeOf(pe) {
					t.Fatalf("%s: degenerate NodeOf(%d) = %d, want %d",
						topo.Name(), pe, ft.NodeOf(pe), nm.NodeOf(pe))
				}
			}
		}
	}
}

// spineOf returns which spine plane a cross-rail fat-tree route uses, or
// "" when it stays on one rail.
func spineOf(f *fabric.Fabric, route []int) string {
	for _, li := range route {
		name := f.LinkAt(li).Name
		if i := strings.Index(name, "spine"); i >= 0 {
			return name[i : i+6]
		}
	}
	return ""
}

// TestECMPPathsStableAndSpread pins static ECMP: rebuilding the same
// fat-tree yields identical routes for every pair (a flow never migrates
// between planes), while across pairs both spine planes carry traffic.
func TestECMPPathsStableAndSpread(t *testing.T) {
	f1 := fabric.H100FatTree(3, 8, 4)
	f2 := fabric.H100FatTree(3, 8, 4)
	p := f1.NumPE()
	used := map[string]bool{}
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			r1, r2 := f1.Route(src, dst), f2.Route(src, dst)
			if len(r1) != len(r2) {
				t.Fatalf("route %d→%d differs across identical builds", src, dst)
			}
			for i := range r1 {
				if f1.LinkAt(r1[i]).Name != f2.LinkAt(r2[i]).Name {
					t.Fatalf("route %d→%d hop %d differs across identical builds", src, dst, i)
				}
			}
			if s := spineOf(f1, r1); s != "" {
				used[s] = true
			}
		}
	}
	if !used["spine0"] || !used["spine1"] {
		t.Fatalf("ECMP left a spine plane idle: used %v", used)
	}
}

// TestFatTreeRouteShape pins the rail-optimized routing: intra-node over
// NVLink only, same-rail inter-node over exactly one rail switch and no
// spine, cross-rail over a spine plane.
func TestFatTreeRouteShape(t *testing.T) {
	f := fabric.H100FatTree(3, 8, 4)
	topo := f.Topology()
	// Intra-node: 450 GB/s, 3 µs, no NIC links.
	if bw, lat := topo.Bandwidth(0, 1), topo.Latency(0, 1); bw != 450e9 || !approx(lat, 3e-6) {
		t.Fatalf("intra-node bw %g lat %g, want 450e9 / 3e-6", bw, lat)
	}
	// Same rail (GPU 0 of node 0 → GPU 0 of node 1): NIC-bound at 50 GB/s,
	// 10 µs, no spine hop.
	sameRail := f.Route(0, 8)
	if bw, lat := topo.Bandwidth(0, 8), topo.Latency(0, 8); bw != 50e9 || !approx(lat, 10e-6) {
		t.Fatalf("same-rail bw %g lat %g, want 50e9 / 10e-6", bw, lat)
	}
	if s := spineOf(f, sameRail); s != "" {
		t.Fatalf("same-rail route crosses %s", s)
	}
	// Cross rail (GPU 0 of node 0 → GPU 3 of node 1): via a spine plane.
	if s := spineOf(f, f.Route(0, 11)); s == "" {
		t.Fatal("cross-rail route avoided the spine")
	}
	if got := topo.NodeOf(11); got != 1 {
		t.Fatalf("NodeOf(11) = %d, want 1", got)
	}
	// Oversubscription: with enough nodes the uplink undercuts the NIC and
	// becomes the cross-rail bottleneck (9 nodes / 4:1 → 112.5 GB/s still
	// above NIC; 9 nodes / 16:1 → 28.125 GB/s below it).
	tight := fabric.H100FatTree(9, 8, 16).Topology()
	if got := tight.Bandwidth(0, 11); !approx(got, 9*50e9/16) {
		t.Fatalf("oversubscribed cross-rail bandwidth %g, want %g", got, 9*50e9/16)
	}
	// Single-NIC (DGX-style) nodes: GPUs sharing the NIC must still talk
	// NVLink intra-node — the PCIe detour through the NIC is never the
	// route — while all inter-node traffic funnels through the one NIC.
	dgx := fabric.H100FatTree(2, 1, 1)
	dtopo := dgx.Topology()
	if bw, lat := dtopo.Bandwidth(0, 1), dtopo.Latency(0, 1); bw != 450e9 || !approx(lat, 3e-6) {
		t.Fatalf("single-NIC intra-node bw %g lat %g, want 450e9 / 3e-6 (NVLink, not PCIe)", bw, lat)
	}
	if bw, lat := dtopo.Bandwidth(0, 8), dtopo.Latency(0, 8); bw != 50e9 || !approx(lat, 10e-6) {
		t.Fatalf("single-NIC inter-node bw %g lat %g, want 50e9 / 10e-6", bw, lat)
	}
}

// TestDegradeReducesPathBandwidth models a downtrained rail: degrading a
// route's bottleneck link shows up in the adapter's scalar pricing while
// the route itself is unchanged (routing is latency-static).
func TestDegradeReducesPathBandwidth(t *testing.T) {
	f := fabric.H100FatTree(3, 8, 4)
	topo := f.Topology()
	before := topo.Bandwidth(0, 8)
	routeBefore := append([]int(nil), f.Route(0, 8)...)
	f.DegradeAt(f.LinkID("n0.nic0.ib>"), 0.25)
	if got := topo.Bandwidth(0, 8); !approx(got, before/4) {
		t.Fatalf("degraded bandwidth %g, want %g", got, before/4)
	}
	for i, li := range f.Route(0, 8) {
		if li != routeBefore[i] {
			t.Fatal("degradation changed the static route")
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
