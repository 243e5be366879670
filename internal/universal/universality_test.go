package universal

import (
	"fmt"
	"testing"

	"slicing/internal/distmat"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
)

// universalityRow is one classical algorithm's own layout: the
// partitionings and replication factors it prescribes for A, B and C, and
// its closed-form per-process communication volume.
type universalityRow struct {
	// family is the classical algorithm, name the case within it.
	family, name        string
	p, m, n, k          int
	partA, partB, partC distmat.Partition
	replA, replB, replC int
	// bound is the classical algorithm's communication volume per process,
	// in elements.
	bound float64
	// collective marks a bound that prices a collective completing the
	// output (DTensor's all-reduce of a Partial result), which Multiply
	// does with remote accumulates: the row's moved elements are its gets
	// plus its remote accumulates, not its gets alone.
	collective bool
	// finding names a bound the row does not meet; the row asserts it
	// splits the classical algorithm's flops p ways instead, and logs the
	// traffic (docs/PERFORMANCE.md, "Universality table").
	finding string
}

// SUMMA (van de Geijn & Watts 1997), one-sided: process (i, j) of the
// pr×pc grid reads its ⌈m/pr⌉×k row panel of A and its k×⌈n/pc⌉ column
// panel of B, less the 1/pc and 1/pr of them it owns:
//
//	W = ⌈m/pr⌉·k·(pc−1)/pc + k·⌈n/pc⌉·(pr−1)/pr
//
// A and B are cut into kb-wide k-panels dealt cyclically over the grid.
func summaRow(m, n, k, pr, pc, kb int) universalityRow {
	bm, bn := ceilDiv(m, pr), ceilDiv(n, pc)
	fr, fc := float64(pr), float64(pc)
	return universalityRow{
		family: "summa", name: fmt.Sprintf("%dx%dx%d_grid%dx%d_kb%d", m, n, k, pr, pc, kb),
		p: pr * pc, m: m, n: n, k: k,
		partA: distmat.Custom{TileRows: bm, TileCols: kb, ProcRows: pr, ProcCols: pc},
		partB: distmat.Custom{TileRows: kb, TileCols: bn, ProcRows: pr, ProcCols: pc},
		partC: distmat.Block2D{ProcRows: pr, ProcCols: pc},
		replA: 1, replB: 1, replC: 1,
		bound: float64(bm*k)*(fc-1)/fc + float64(k*bn)*(fr-1)/fr,
	}
}

// Cannon (1969) on a q×q grid: each of the q−1 shifts moves one A block
// and one B block into every process:
//
//	W = (q−1)·(⌈m/q⌉·⌈k/q⌉ + ⌈k/q⌉·⌈n/q⌉)
func cannonRow(q, m, n, k int) universalityRow {
	bm, bn, bk := ceilDiv(m, q), ceilDiv(n, q), ceilDiv(k, q)
	grid := func(tr, tc int) distmat.Partition {
		return distmat.Custom{TileRows: tr, TileCols: tc, ProcRows: q, ProcCols: q}
	}
	return universalityRow{
		family: "cannon", name: fmt.Sprintf("p%d_%dx%dx%d", q*q, m, n, k),
		p: q * q, m: m, n: n, k: k,
		partA: grid(bm, bk), partB: grid(bk, bn), partC: distmat.Block2D{ProcRows: q, ProcCols: q},
		replA: 1, replB: 1, replC: 1,
		bound: float64(q-1) * float64(bm*bk+bk*bn),
	}
}

// 1.5D (Koanantakool et al., IPDPS 2016): A and C row-blocked and
// replicated c times, B row-blocked over all p. Each team of p/c processes
// covers k/c of the inner dimension, so each process reads the team's p/c
// B blocks of ⌈k/p⌉ rows, the nk/c of the paper for p | k:
//
//	W = (p/c)·⌈k/p⌉·n
func oneDotFiveDRow(p, c, m, n, k int) universalityRow {
	return universalityRow{
		family: "1.5d", name: fmt.Sprintf("p%d_c%d", p, c),
		p: p, m: m, n: n, k: k,
		partA: distmat.RowBlock{}, partB: distmat.RowBlock{}, partC: distmat.RowBlock{},
		replA: c, replB: 1, replC: c,
		bound: float64(p / c * ceilDiv(k, p) * n),
	}
}

// 2.5D (Solomonik & Demmel, Euro-Par 2011): c replicas of a q×q grid
// (p = c·q²), each running k/c of SUMMA's stages; process (i, j) reads its
// ⌈m/q⌉×k/c panel of A and k/c×⌈n/q⌉ panel of B:
//
//	W = (⌈m/q⌉ + ⌈n/q⌉)·⌈k/c⌉   (2n²/√(cp) for square n)
func twoPointFiveDRow(q, c, m, n, k int) universalityRow {
	bm, bn := ceilDiv(m, q), ceilDiv(n, q)
	grid := func(tr, tc int) distmat.Partition {
		return distmat.Custom{TileRows: tr, TileCols: tc, ProcRows: q, ProcCols: q}
	}
	return universalityRow{
		family: "2.5d", name: fmt.Sprintf("p%d_c%d", c*q*q, c),
		p: c * q * q, m: m, n: n, k: k,
		partA: grid(bm, ceilDiv(k, q)), partB: grid(ceilDiv(k, q), bn), partC: grid(bm, bn),
		replA: c, replB: c, replC: c,
		bound: float64((bm + bn) * ceilDiv(k, c)),
	}
}

// COSMA (Kwasniewski et al., SC 2019): A, B and C blocked on a Pm×Pn grid
// and replicated Pk times. The volume COSMA's grid optimizer minimizes
// (bench's figure model, whose choices these bricks are) charges each
// process its A and B bricks and, with Pk > 1, the C brick's reduce and
// broadcast:
//
//	W = (m/Pm)·(k/Pk) + (k/Pk)·(n/Pn) + [Pk > 1]·2·(m/Pm)·(n/Pn)
func cosmaRow(m, n, k, pm, pn, pk int) universalityRow {
	fm, fn, fk := float64(m), float64(n), float64(k)
	w := fm/float64(pm)*fk/float64(pk) + fk/float64(pk)*fn/float64(pn)
	if pk > 1 {
		w += 2 * fm / float64(pm) * fn / float64(pn)
	}
	part := distmat.Block2D{ProcRows: pm, ProcCols: pn}
	return universalityRow{
		family: "cosma", name: fmt.Sprintf("%dx%dx%d_p%d_%dx%dx%d", m, n, k, pm*pn*pk, pm, pn, pk),
		p: pm * pn * pk, m: m, n: n, k: k,
		partA: part, partB: part, partC: part,
		replA: pk, replB: pk, replC: pk,
		bound: w,
	}
}

// DTensor placements on a 1-D mesh.
type dtPlacement int

const (
	shard0 dtPlacement = iota
	shard1
	replicate
)

func (pl dtPlacement) String() string {
	return [...]string{"Shard(0)", "Shard(1)", "Replicate"}[pl]
}

// layout maps a placement to distmat: Shard(0) is RowBlock, Shard(1)
// ColBlock, and Replicate — like a Partial output, whose p full-size terms
// the replica reduction sums — is replication p.
func (pl dtPlacement) layout(p int) (distmat.Partition, int) {
	switch pl {
	case shard0:
		return distmat.RowBlock{}, 1
	case shard1:
		return distmat.ColBlock{}, 1
	}
	return distmat.RowBlock{}, p
}

// dtensorRow is one DTensor matmul dispatch (PyTorch DTensor's sharding
// rules): x and w's placements and the placement of its output (replicate
// for a Partial one). Its bound is the collective the rule issues, over a
// ring (Patarasuk & Yuan 2009), per process:
//
//	all-reduce of a Partial m×n output:  2·(p−1)/p·m·n
//	all-gather of a resharded operand:   (p−1)/p of its k·n (w) or m·k (x)
//
// and zero for the communication-free rules.
func dtensorRow(p, m, n, k int, x, w, out dtPlacement, bound float64) universalityRow {
	pa, ra := x.layout(p)
	pb, rb := w.layout(p)
	pc, rc := out.layout(p)
	return universalityRow{
		family: "dtensor", name: fmt.Sprintf("%v_%v", x, w),
		p: p, m: m, n: n, k: k,
		partA: pa, partB: pb, partC: pc,
		replA: ra, replB: rb, replC: rc,
		bound: bound, collective: true,
	}
}

func universalityRows() []universalityRow {
	rows := []universalityRow{
		// SUMMA, the aligned-panel grids of the classical precondition.
		summaRow(48, 48, 48, 2, 2, 12),
		summaRow(48, 48, 48, 2, 3, 8),
		summaRow(50, 46, 54, 2, 2, 9), // ragged everywhere
		summaRow(32, 32, 32, 1, 4, 8), // degenerate 1D grid
		summaRow(32, 32, 32, 4, 1, 16),
	}
	for _, q := range []int{1, 2, 3} {
		rows = append(rows, cannonRow(q, 36, 36, 36), cannonRow(q, 37, 41, 43))
	}
	rows = append(rows,
		oneDotFiveDRow(4, 1, 32, 24, 40),
		oneDotFiveDRow(4, 2, 32, 24, 40),
		oneDotFiveDRow(12, 3, 36, 30, 48),
		oneDotFiveDRow(12, 4, 35, 29, 47),  // ragged
		oneDotFiveDRow(4, 4, 20, 20, 20),   // fully replicated A and C
		twoPointFiveDRow(2, 1, 32, 32, 32), // SUMMA's grid
		twoPointFiveDRow(2, 2, 32, 32, 32),
		twoPointFiveDRow(2, 3, 34, 38, 42), // ragged
		twoPointFiveDRow(2, 4, 32, 32, 64),
		// COSMA's bricks, as its optimizer picks them (hard-coded: bench,
		// which holds the optimizer, imports this package).
		cosmaRow(24, 28, 32, 2, 2, 1),
		cosmaRow(26, 30, 34, 2, 4, 1),
		cosmaRow(36, 24, 48, 4, 3, 1),
		cosmaRow(16, 16, 256, 1, 1, 8),
	)
	const p, m, n, k = 4, 32, 40, 48
	frac := float64(p-1) / p
	allReduce := 2 * frac * m * n
	rr := dtensorRow(p, m, n, k, replicate, replicate, replicate, 0)
	rr.finding = "Multiply splits k across the p replicas and reduces C, where DTensor repeats the whole GEMM on every device"
	return append(rows,
		// The six registered rules.
		dtensorRow(p, m, n, k, shard0, replicate, shard0, 0),
		dtensorRow(p, m, n, k, replicate, shard1, shard1, 0),
		dtensorRow(p, m, n, k, shard1, shard0, replicate, allReduce),
		dtensorRow(p, m, n, k, replicate, shard0, replicate, allReduce),
		dtensorRow(p, m, n, k, shard1, replicate, replicate, allReduce),
		rr,
		// No rule: one operand is all-gathered to Replicate first.
		dtensorRow(p, m, n, k, shard0, shard0, shard0, frac*k*n),
		dtensorRow(p, m, n, k, shard0, shard1, shard0, frac*k*n),
		dtensorRow(p, m, n, k, shard1, shard1, shard1, frac*m*k),
	)
}

// universalityCfg is the configuration every row runs at: DefaultConfig
// with C stationary, as it is in every classical algorithm of the table.
func universalityCfg() Config {
	cfg := DefaultConfig()
	cfg.Stationary = StationaryC
	return cfg
}

// runUniversalityRow multiplies the row's layout on a fresh shmem world and
// returns max |C − GemmNaive| and the multiply's traffic.
func runUniversalityRow(row universalityRow, cfg Config) (maxErr float64, st rt.Stats, prob Problem) {
	w := shmem.NewWorld(row.p)
	a := distmat.New(w, row.m, row.k, row.partA, row.replA)
	b := distmat.New(w, row.k, row.n, row.partB, row.replB)
	c := distmat.New(w, row.m, row.n, row.partC, row.replC)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 31)
		b.FillRandom(pe, 32)
	})
	want := referenceProduct(row.m, row.n, row.k, 31, 32, a, b, w)
	w.ResetStats()
	w.Run(func(pe rt.PE) {
		if _, err := Multiply(pe, c, a, b, cfg); err != nil {
			panic(err)
		}
	})
	st = w.Stats()
	w.Run(func(pe rt.PE) {
		if pe.Rank() == 0 {
			maxErr = c.Gather(pe, 0).MaxAbsDiff(want)
		}
	})
	return maxErr, st, NewProblem(c, a, b)
}

// perRank is a world total of bytes as float32 elements per rank.
func perRank(bytes int64, p int) float64 { return float64(bytes) / 4 / float64(p) }

// The paper's claim (README; §1, §4.1) is that one sliced algorithm covers
// every partitioning and replication factor, and so generalizes SUMMA,
// Cannon, 1.5D, 2.5D, COSMA and DTensor. Each row is one of them: its own
// layout run through Multiply on shmem at universalityCfg. Every row must
// compute C within 1e-4 of GemmNaive and move no more remote elements per
// rank (the world's total over p) than the classical algorithm's
// closed-form volume. The log prints each row's ratio. Rows run grouped
// by family, in the order universalityRows lists them.
func TestUniversalityTable(t *testing.T) {
	rows := universalityRows()
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n].family == rows[0].family {
			n++
		}
		family := rows[:n]
		rows = rows[n:]
		t.Run(family[0].family, func(t *testing.T) {
			for _, row := range family {
				testUniversalityRow(t, row)
			}
		})
	}
}

// testUniversalityRow runs one row of TestUniversalityTable as a subtest.
func testUniversalityRow(t *testing.T, row universalityRow) {
	t.Run(row.name, func(t *testing.T) {
		cfg := universalityCfg()
		maxErr, st, prob := runUniversalityRow(row, cfg)
		if maxErr > 1e-4 {
			t.Fatalf("max |C − GemmNaive| = %g > 1e-4", maxErr)
		}
		moved := st.RemoteGetBytes
		if row.collective {
			moved += st.RemoteAccumBytes
		}
		got := perRank(moved, row.p)
		if row.finding != "" {
			// DTensor's whole GEMM on every device is 2mnk flops each.
			want := 2 * float64(row.m) * float64(row.n) * float64(row.k) / float64(row.p)
			for r, pl := range CompilePlans(prob, cfg).Plans {
				if f := pl.TotalFlops(); f != want {
					t.Fatalf("rank %d runs %g flops, want 1/p of DTensor's: %g", r, f, want)
				}
			}
			t.Logf("finding: %.0f elems/rank moved against a bound of %.0f: %s", got, row.bound, row.finding)
			return
		}
		if got > row.bound {
			t.Fatalf("%.0f elems/rank moved > classical bound %.0f", got, row.bound)
		}
		ratio := "-" // of a zero bound
		if row.bound > 0 {
			ratio = fmt.Sprintf("%.2f", got/row.bound)
		}
		t.Logf("%.0f / %.0f elems/rank (ratio %s), max err %.2g", got, row.bound, ratio, maxErr)
	})
}

// The communication-avoiding claim of 2.5D (§2.1): at a fixed q×q grid and
// shape, the per-rank remote reads fall as the replication c grows, because
// each replica runs only k/c of the stages. (Past c = q the k/c share is
// narrower than a k-tile, and whole-tile fetches stop the fall.)
func TestTwoPointFiveDReducesGets(t *testing.T) {
	gets := func(c int) float64 {
		row := twoPointFiveDRow(2, c, 32, 32, 32)
		_, st, _ := runUniversalityRow(row, universalityCfg())
		return perRank(st.RemoteGetBytes, row.p)
	}
	if one, two := gets(1), gets(2); two >= one {
		t.Fatalf("c=2 reads %.0f elems/rank, not fewer than %.0f at c=1", two, one)
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
