package bench

import (
	"math"

	"slicing/internal/universal"
)

// The comparison series' figure models: closed-form times for COSMA and
// DTensor on a simulated system. Both price their collectives as rings
// (the NCCL/oneCCL algorithms those systems call) over the slowest hop.
// How the universal algorithm runs each one's layout is
// TestUniversalityTable in internal/universal.

// ringBandwidth is the bandwidth of the slowest hop on the natural ring
// over the topology, which bottlenecks ring collectives.
func ringBandwidth(sys universal.SimSystem) float64 {
	p := sys.Topo.NumPE()
	bw := math.Inf(1)
	for i := 0; i < p; i++ {
		if b := sys.Topo.Bandwidth(i, (i+1)%p); b < bw {
			bw = b
		}
	}
	return bw
}

// ringTime is one ring all-gather (or reduce-scatter) of bytes across a
// group at bandwidth bw: (g−1)/g of the bytes cross each link.
func ringTime(group int, bytes, bw float64) float64 {
	if group <= 1 {
		return 0
	}
	g := float64(group)
	return (g - 1) / g * bytes / bw
}

// cosmaGrid is a COSMA processor-grid choice (Kwasniewski et al., SC'19)
// for C = A·B on p = Pm·Pn·Pk processors: m is split Pm ways, n Pn ways,
// and k Pk ways across replicas.
type cosmaGrid struct {
	Pm, Pn, Pk int
	// commVolume is the modelled per-processor communication in elements.
	commVolume float64
}

// cosmaVolume models per-processor communication for a (pm, pn, pk) grid:
// each processor needs an (m/pm × k/pk) brick of A and a (k/pk × n/pn)
// brick of B, and with pk > 1 the C brick (m/pm × n/pn) is reduced across
// the pk replicas (counted twice for the reduce+broadcast round trip).
func cosmaVolume(m, n, k, pm, pn, pk int) float64 {
	fm, fn, fk := float64(m), float64(n), float64(k)
	a := fm / float64(pm) * fk / float64(pk)
	b := fk / float64(pk) * fn / float64(pn)
	c := 0.0
	if pk > 1 {
		c = 2 * fm / float64(pm) * fn / float64(pn)
	}
	return a + b + c
}

// optimizeCOSMA returns the grid of p processors minimizing the modelled
// communication volume, with unlimited memory as in the paper's COSMA
// runs: exact over all factorization triples of p, scaling between 2D
// (Pk = 1) and 2.5D (Pk > 1). Ties prefer the smaller Pk.
func optimizeCOSMA(m, n, k, p int) cosmaGrid {
	best := cosmaGrid{commVolume: math.Inf(1)}
	for pm := 1; pm <= p; pm++ {
		if p%pm != 0 {
			continue
		}
		rest := p / pm
		for pn := 1; pn <= rest; pn++ {
			if rest%pn != 0 {
				continue
			}
			pk := rest / pn
			v := cosmaVolume(m, n, k, pm, pn, pk)
			if v < best.commVolume || (v == best.commVolume && pk < best.Pk) {
				best = cosmaGrid{Pm: pm, Pn: pn, Pk: pk, commVolume: v}
			}
		}
	}
	return best
}

// collectiveEfficiency discounts COSMA's group all-reduce bandwidth,
// reflecting the paper's observation that the group collective's
// performance "is possibly suboptimal" on MLP-1 (§5.2).
const collectiveEfficiency = 0.6

// simulateCOSMA estimates COSMA's time: the local brick GEMM (roofline)
// plus ring all-gathers of the A and B bricks within their gather groups
// and a ring all-reduce of C across the Pk replicas, at discounted
// collective efficiency.
func simulateCOSMA(sys universal.SimSystem, m, n, k int) (cosmaGrid, universal.SimResult) {
	d := optimizeCOSMA(m, n, k, sys.Topo.NumPE())
	bw := ringBandwidth(sys) * collectiveEfficiency

	bm := ceilDiv(m, d.Pm)
	bn := ceilDiv(n, d.Pn)
	bk := ceilDiv(k, d.Pk)
	gemmT := sys.Dev.GemmTime(bm, bn, bk)
	// A brick is gathered across the pn dimension, B across pm; C is
	// all-reduced across pk (2x for reduce + broadcast).
	commT := ringTime(d.Pn, 4*float64(bm)*float64(bk), bw) +
		ringTime(d.Pm, 4*float64(bk)*float64(bn), bw) +
		2*ringTime(d.Pk, 4*float64(bm)*float64(bn), bw)
	return d, modelResult(sys, m, n, k, gemmT, commT)
}

// dtensorRow is the "DT - Row" series of Figures 2-3: the weight
// row-sharded over k and the activation column-sharded to match
// (Shard(1) × Shard(0)), so the GEMM is m×n×k/p and its Partial output is
// completed by a ring all-reduce, the redistribute() the paper issues.
func dtensorRow(sys universal.SimSystem, m, n, k int) universal.SimResult {
	p := sys.Topo.NumPE()
	gemmT := sys.Dev.GemmTime(m, n, ceilDiv(k, p))
	return modelResult(sys, m, n, k, gemmT, 2*ringTime(p, 4*float64(m)*float64(n), ringBandwidth(sys)))
}

// dtensorColumn is the "DT - Column" series: the weight column-sharded
// with the activation replicated (Replicate × Shard(1), Megatron-style),
// which needs no communication inside the matmul.
func dtensorColumn(sys universal.SimSystem, m, n, k int) universal.SimResult {
	return modelResult(sys, m, n, k, sys.Dev.GemmTime(m, ceilDiv(n, sys.Topo.NumPE()), k), 0)
}

// modelResult prices one comparison-system matmul: its local GEMM and
// collectives plus one launch, and that time as a share of the world's
// peak.
func modelResult(sys universal.SimSystem, m, n, k int, gemmT, commT float64) universal.SimResult {
	total := gemmT + commT + sys.Dev.LaunchOverhead
	flops := 2 * float64(m) * float64(n) * float64(k)
	return universal.SimResult{
		Makespan:      total,
		PercentOfPeak: flops / (float64(sys.Topo.NumPE()) * sys.Dev.PeakFlops * total) * 100,
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
