// Package simnet models the intra-node interconnects of the paper's two
// evaluation systems (Table 2): the Xe Link fabric of the 12-tile Intel PVC
// node and the NVLink fabric of the 8-GPU H100 node.
//
// The model is link-level: every PE has one egress port and one ingress
// port; a transfer from src to dst occupies both ports for
// latency + bytes/bandwidth(src,dst) seconds. Serializing on ports is what
// produces the network hot-spotting that the paper's iteration offset
// (§4.2) exists to avoid, so the discrete-event simulation on top of this
// package reproduces that effect faithfully.
package simnet

import "fmt"

// Topology describes point-to-point bandwidth and latency between PEs.
type Topology interface {
	// NumPE returns the number of processing elements.
	NumPE() int
	// Bandwidth returns the unidirectional bandwidth in bytes/second for a
	// transfer from src to dst. src == dst means a device-local copy and
	// returns the local copy-engine bandwidth.
	Bandwidth(src, dst int) float64
	// Latency returns the transfer startup latency in seconds from src to dst.
	Latency(src, dst int) float64
	// Name returns a human-readable topology name.
	Name() string
}

// Routed is implemented by topologies that model individual fabric links
// (internal/fabric): every src→dst pair follows a static route of directed
// links, and timed backends reserve those links — rather than the legacy
// per-PE egress/ingress ports — so transfers that share a switch uplink, a
// NIC, or a rail contend with each other even when their endpoints differ.
// For a Routed topology, Bandwidth(src,dst) must return the route's
// bottleneck-link bandwidth and Latency(src,dst) the route's total latency,
// so System's op prices, which every estimator reads, are the same numbers
// the link model charges.
type Routed interface {
	Topology
	// NumLinks returns the number of directed links in the fabric.
	NumLinks() int
	// LinkName names one link for stats and trace rendering.
	LinkName(link int) string
	// RouteIDs returns the static route from src to dst as link indices in
	// traversal order. It is empty for src == dst (device-local copies use
	// no fabric links). Callers must not modify the returned slice.
	RouteIDs(src, dst int) []int
}

// NodeMapper is implemented by multi-node topologies (MultiNode, fabric
// clusters): it maps each PE to the machine hosting it. Timed backends use
// it to route AccumulateAdd through the §3 get+put path automatically when
// src and dst sit on different machines, where the RDMA fabric offers no
// remote atomics.
type NodeMapper interface {
	// NodeOf returns the node (machine) index hosting a PE.
	NodeOf(pe int) int
}

// TransferTime returns the unloaded (contention-free) time in seconds to
// move bytes from src to dst over topo.
func TransferTime(topo Topology, src, dst int, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return topo.Latency(src, dst) + bytes/topo.Bandwidth(src, dst)
}

const (
	gb = 1e9
	us = 1e-6
)

// Uniform is an all-to-all topology where every distinct pair of PEs enjoys
// the same link bandwidth and latency, and local copies run at LocalBW.
type Uniform struct {
	P        int
	LinkBW   float64 // bytes/s between distinct PEs
	LocalBW  float64 // bytes/s for src == dst copies
	LinkLat  float64 // seconds, distinct PEs
	TopoName string
}

// NewUniform builds a uniform all-to-all topology.
func NewUniform(p int, linkBW, localBW, latency float64, name string) *Uniform {
	if p <= 0 || linkBW <= 0 || localBW <= 0 {
		panic(fmt.Sprintf("simnet: invalid uniform topology p=%d link=%g local=%g", p, linkBW, localBW))
	}
	return &Uniform{P: p, LinkBW: linkBW, LocalBW: localBW, LinkLat: latency, TopoName: name}
}

func (u *Uniform) NumPE() int { return u.P }

func (u *Uniform) Bandwidth(src, dst int) float64 {
	u.check(src, dst)
	if src == dst {
		return u.LocalBW
	}
	return u.LinkBW
}

func (u *Uniform) Latency(src, dst int) float64 {
	u.check(src, dst)
	if src == dst {
		return 0
	}
	return u.LinkLat
}

func (u *Uniform) Name() string { return u.TopoName }

func (u *Uniform) check(src, dst int) {
	if src < 0 || src >= u.P || dst < 0 || dst >= u.P {
		panic(fmt.Sprintf("simnet: pe pair (%d,%d) out of %d-PE topology", src, dst, u.P))
	}
}

// TwoLevel is a hierarchical topology of groups (e.g. the two tiles of one
// PVC package) where intra-group transfers use a fast link and inter-group
// transfers use the node-level fabric.
type TwoLevel struct {
	P         int
	GroupSize int
	IntraBW   float64 // bytes/s within a group (PVC inter-tile: 230 GB/s)
	InterBW   float64 // bytes/s across groups (Xe Link)
	LocalBW   float64 // bytes/s for src == dst
	IntraLat  float64
	InterLat  float64
	TopoName  string
}

// NewTwoLevel builds a two-level topology of P PEs in groups of groupSize.
func NewTwoLevel(p, groupSize int, intraBW, interBW, localBW, intraLat, interLat float64, name string) *TwoLevel {
	if p <= 0 || groupSize <= 0 || p%groupSize != 0 {
		panic(fmt.Sprintf("simnet: invalid two-level topology p=%d group=%d", p, groupSize))
	}
	return &TwoLevel{
		P: p, GroupSize: groupSize,
		IntraBW: intraBW, InterBW: interBW, LocalBW: localBW,
		IntraLat: intraLat, InterLat: interLat, TopoName: name,
	}
}

func (t *TwoLevel) NumPE() int { return t.P }

func (t *TwoLevel) Bandwidth(src, dst int) float64 {
	t.check(src, dst)
	switch {
	case src == dst:
		return t.LocalBW
	case src/t.GroupSize == dst/t.GroupSize:
		return t.IntraBW
	default:
		return t.InterBW
	}
}

func (t *TwoLevel) Latency(src, dst int) float64 {
	t.check(src, dst)
	switch {
	case src == dst:
		return 0
	case src/t.GroupSize == dst/t.GroupSize:
		return t.IntraLat
	default:
		return t.InterLat
	}
}

func (t *TwoLevel) Name() string { return t.TopoName }

func (t *TwoLevel) check(src, dst int) {
	if src < 0 || src >= t.P || dst < 0 || dst >= t.P {
		panic(fmt.Sprintf("simnet: pe pair (%d,%d) out of %d-PE topology", src, dst, t.P))
	}
}

// PresetPVC returns the 12-tile Intel PVC node from Table 2: 6 dual-tile
// Data Center GPU Max 1550 packages. Tiles within a package communicate at
// 230 GB/s over the inter-tile interconnect; tiles in different packages use
// Xe Link at 26.5 GB/s per-device unidirectional bandwidth (Table 2). Local
// copies run at an HBM2e-class copy-engine rate.
func PresetPVC() *TwoLevel {
	return NewTwoLevel(12, 2,
		230*gb, 26.5*gb, 1000*gb,
		2*us, 5*us, "12xPVC XeLink")
}

// PresetH100 returns the 8-GPU Nvidia H100 node from Table 2: NVLink
// all-to-all at 450 GB/s unidirectional per device, HBM3-class local copies.
func PresetH100() *Uniform {
	return NewUniform(8, 450*gb, 2000*gb, 3*us, "8xH100 NVLink")
}
