package fabric

import "slicing/internal/simnet"

// Topology adapts a frozen Fabric to the simnet topology contract, which
// is how every existing consumer prices through the fabric without
// knowing it exists:
//
//   - simnet.Topology: Bandwidth(src,dst) is the route's bottleneck-link
//     bandwidth and Latency(src,dst) its total latency, so the op prices
//     of simnet.System — which the plan replay, its closed-form
//     estimator, the timed backend, autotune and bench all read — are
//     exactly the numbers the link model charges for an uncontended
//     transfer.
//   - simnet.Routed: the timed backend (gpubackend) reads the
//     per-pair link routes and reserve individual links instead of the
//     legacy per-PE ports, which is where per-link contention comes from.
//   - simnet.NodeMapper: multi-machine fabrics expose the PE→machine
//     mapping, switching AccumulateAdd to the §3 get+put path across node
//     boundaries.
type Topology struct {
	f *Fabric
}

var (
	_ simnet.Topology   = (*Topology)(nil)
	_ simnet.Routed     = (*Topology)(nil)
	_ simnet.NodeMapper = (*Topology)(nil)
)

// Topology returns the simnet adapter for a frozen fabric.
func (f *Fabric) Topology() *Topology {
	f.mustBeFrozen()
	return &Topology{f: f}
}

// Fabric returns the underlying link graph.
func (t *Topology) Fabric() *Fabric { return t.f }

// NumPE returns the number of processing elements.
func (t *Topology) NumPE() int { return t.f.NumPE() }

// Bandwidth returns the bottleneck-link bandwidth of the src→dst route,
// or the device-local copy bandwidth for src == dst.
func (t *Topology) Bandwidth(src, dst int) float64 {
	if src == dst {
		t.f.Route(src, dst) // bounds check
		return t.f.localBW
	}
	return t.f.PathBandwidth(t.f.Route(src, dst))
}

// Latency returns the total latency of the src→dst route (0 for local
// copies).
func (t *Topology) Latency(src, dst int) float64 {
	return t.f.RouteLatency(src, dst)
}

// Name returns the fabric's name.
func (t *Topology) Name() string { return t.f.Name() }

// NumLinks returns the number of directed links (simnet.Routed).
func (t *Topology) NumLinks() int { return t.f.NumLinks() }

// LinkName names one link (simnet.Routed).
func (t *Topology) LinkName(link int) string { return t.f.links[link].Name }

// RouteIDs returns the static src→dst route as link indices
// (simnet.Routed). Callers must not modify the returned slice.
func (t *Topology) RouteIDs(src, dst int) []int { return t.f.Route(src, dst) }

// NodeOf returns the machine hosting a PE (simnet.NodeMapper).
func (t *Topology) NodeOf(pe int) int { return t.f.MachineOf(pe) }
