package simnet

import "slicing/internal/gpusim"

// System is one evaluation system (Table 2): an interconnect topology and
// the device model on every PE. Its methods are the §4.3 op prices — a
// roofline for local GEMMs, bytes over the route's bandwidth for
// transfers — and the one place they are written down: the plan replay
// (universal), its closed-form estimator and the timed backend
// (gpubackend) all price through them and differ only in how they
// schedule the priced ops.
type System struct {
	Topo Topology
	Dev  gpusim.Device
}

// Gemm returns the seconds for a local m×n×k GEMM: the device's roofline
// plus one kernel launch.
func (s System) Gemm(m, n, k int) float64 {
	return s.Dev.GemmTime(m, n, k) + s.Dev.LaunchOverhead
}

// Fetch returns the seconds to copy bytes from src to dst: an HBM copy when
// the two are the same PE, otherwise the route's contention-free transfer
// time plus one launch.
func (s System) Fetch(src, dst, bytes int) float64 {
	if src == dst {
		return float64(bytes) / s.Dev.MemBW
	}
	return TransferTime(s.Topo, src, dst, float64(bytes)) + s.Dev.LaunchOverhead
}

// Accum returns the seconds for an accumulate of bytes from rank into dst's
// memory. A local accumulate is a read-modify-write in HBM. Across a node
// boundary (CrossNode) it is the §3 get+put round trip, two Fetches, since
// the RDMA fabric offers no remote atomics. Otherwise it is the accumulate
// kernel at the device's measured fraction of the link's copy bandwidth.
func (s System) Accum(rank, dst, bytes int) float64 {
	switch {
	case rank == dst:
		return 2*float64(bytes)/s.Dev.MemBW + s.Dev.LaunchOverhead
	case s.CrossNode(rank, dst):
		return s.Fetch(dst, rank, bytes) + s.Fetch(rank, dst, bytes)
	}
	bw := s.Topo.Bandwidth(rank, dst)
	return s.Dev.AccumTime(float64(bytes), bw) + s.Topo.Latency(rank, dst) + s.Dev.LaunchOverhead
}

// CrossNode reports whether PEs a and b sit on different machines of a
// multi-node topology (NodeMapper), the boundary past which an accumulate
// must take the §3 get+put path.
func (s System) CrossNode(a, b int) bool {
	nm, ok := s.Topo.(NodeMapper)
	return ok && nm.NodeOf(a) != nm.NodeOf(b)
}
