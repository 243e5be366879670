// Package gpusim simulates the GPU devices of the paper's evaluation
// systems: a roofline compute model (Device), a memory pool (Pool), and
// Engine, the one discrete-event scheduler over exclusive resources that
// accounts for overlap between communication and computation. Build a
// whole DAG of ops with AddOp (dependencies are edges by OpID), then Run
// list-schedules it; QueueDelay reads the time ops sat ready behind busy
// resources off the finished schedule. Both timing paths schedule on it:
// the plan replay (universal.ModelExecutor, behind SimulateMultiply) and
// the timed backend (internal/gpubackend), which records each PE's ops
// while it runs and schedules the logs once when asked for a time. Both
// build their DAGs through simnet.Occupancy, so they agree on which
// engines and links every op holds.
//
// The paper reports performance as percent of theoretical FP32 peak
// (Figures 2-3). This package provides the device half of that model; the
// link half lives in package simnet, whose System joins the two into the
// §4.3 op prices every estimator and the timed backend read. Together they
// let the benchmark harness regenerate the figures' shape without the
// authors' hardware.
package gpusim

import "fmt"

// Device describes one simulated GPU's compute characteristics.
type Device struct {
	// Name identifies the device model.
	Name string
	// PeakFlops is the theoretical FP32 peak in FLOP/s (Table 2).
	PeakFlops float64
	// MemBW is the HBM bandwidth in bytes/s used by the roofline model.
	MemBW float64
	// AccumBWFactor is the fraction of copy bandwidth the accumulate kernel
	// achieves. The paper measures ~0.8 on PVC (§5.1).
	AccumBWFactor float64
	// AccumComputeInterference, when true, makes remote accumulates into a
	// device also occupy that device's compute engine, modelling the
	// accumulate-kernel/GEMM interference the paper observes on H100 (§5.2).
	AccumComputeInterference bool
	// GranM, GranN, GranK are the kernel-granularity half-points of the
	// shape-efficiency model: a GEMM dimension d achieves d/(d+gran) of the
	// ideal throughput in that dimension, capturing the thin-panel GEMM
	// inefficiency the paper discusses for inner-product partitionings.
	GranM, GranN, GranK float64
	// LaunchOverhead is the fixed host-side cost of launching one kernel or
	// copy, which penalizes schedules with many tiny operations.
	LaunchOverhead float64
	// CopyInEngines and CopyOutEngines count the device's DMA engines per
	// direction: how many gets (respectively puts/accumulate egress) the
	// device can have in flight before they queue on an engine. H100s carry
	// more copy engines than a PVC tile. Zero means one (the historical
	// single engine pair), so hand-built devices keep their behaviour.
	CopyInEngines, CopyOutEngines int
}

// NumCopyInEngines returns the copy-in engine count (minimum 1).
func (d Device) NumCopyInEngines() int { return engineCount(d.CopyInEngines) }

// NumCopyOutEngines returns the copy-out engine count (minimum 1).
func (d Device) NumCopyOutEngines() int { return engineCount(d.CopyOutEngines) }

func engineCount(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// PresetPVCDevice returns an Intel Data Center GPU Max 1550 tile from
// Table 2: 22.7 TFLOPs FP32 peak per tile, HBM2e-class bandwidth.
func PresetPVCDevice() Device {
	return Device{
		Name:          "PVC tile",
		PeakFlops:     22.7e12,
		MemBW:         1.6e12,
		AccumBWFactor: 0.8,
		GranM:         48, GranN: 48, GranK: 48,
		LaunchOverhead: 5e-6,
		// One main copy engine per direction per tile (the blitter).
		CopyInEngines: 1, CopyOutEngines: 1,
	}
}

// PresetH100Device returns an Nvidia H100 from Table 2: 67 TFLOPs FP32
// peak, HBM3-class bandwidth. Accumulate kernels interfere with concurrent
// GEMMs on this device, as observed in §5.2 of the paper.
func PresetH100Device() Device {
	return Device{
		Name:                     "H100",
		PeakFlops:                67e12,
		MemBW:                    3.35e12,
		AccumBWFactor:            0.8,
		AccumComputeInterference: true,
		GranM:                    48, GranN: 48, GranK: 48,
		LaunchOverhead: 5e-6,
		// Hopper exposes several async copy engines per direction; three
		// per direction is what concurrent NVLink + PCIe/IB traffic can
		// actually drive.
		CopyInEngines: 3, CopyOutEngines: 3,
	}
}

// GemmTime returns the simulated seconds for a local m×k × k×n FP32 GEMM on
// the device: a roofline bound (max of compute time and memory time)
// inflated by the shape-granularity efficiency of the kernel.
func (d Device) GemmTime(m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	bytes := 4 * (float64(m)*float64(k) + float64(k)*float64(n) + 2*float64(m)*float64(n))
	eff := d.shapeEfficiency(m, n, k)
	computeT := flops / (d.PeakFlops * eff)
	memT := bytes / d.MemBW
	return max(computeT, memT)
}

// GemmEfficiency returns the fraction of peak the device achieves on an
// m×n×k GEMM in isolation (for reporting).
func (d Device) GemmEfficiency(m, n, k int) float64 {
	t := d.GemmTime(m, n, k)
	if t == 0 {
		return 1
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	return flops / d.PeakFlops / t
}

func (d Device) shapeEfficiency(m, n, k int) float64 {
	em := float64(m) / (float64(m) + d.GranM)
	en := float64(n) / (float64(n) + d.GranN)
	ek := float64(k) / (float64(k) + d.GranK)
	// Geometric-style combination: one generous dimension cannot fully
	// compensate a degenerate one, but the penalty is softer than a product.
	e := cbrt(em * en * ek)
	if e <= 0 {
		return 1e-6
	}
	return e
}

// AccumTime returns the simulated seconds for the device-side accumulate
// kernel to apply bytes of updates arriving at full link bandwidth linkBW.
// The kernel achieves AccumBWFactor of the copy rate.
func (d Device) AccumTime(bytes, linkBW float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / (linkBW * d.AccumBWFactor)
}

func (d Device) String() string {
	return fmt.Sprintf("%s (%.1f TFLOPs, %.2f TB/s)", d.Name, d.PeakFlops/1e12, d.MemBW/1e12)
}

// cbrt is a small positive-domain cube root (avoids importing math for one
// call site and keeps the efficiency model self-contained).
func cbrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations from a decent seed converge fast in (0, 1].
	// Stop as soon as the iterate is stationary: once next == g every
	// remaining iteration would reproduce g, so the early exit returns
	// bit-identical results to the fixed 40-pass loop it replaced — it
	// just skips the dead spins (the loop is on the cost model's hottest
	// path, one call per plan step per rank per autotune candidate).
	g := x
	if g > 1 {
		g = 1
	}
	for i := 0; i < 40; i++ {
		next := (2*g + x/(g*g)) / 3
		if next == g {
			break
		}
		g = next
	}
	return g
}
