package bench

import (
	"testing"

	"slicing/internal/universal"
)

// quickOpt keeps sweep time reasonable in unit tests.
func quickOpt() Options {
	return Options{
		Replications: []int{1, 2, 4},
		Batches:      []int{1024, 8192},
	}
}

func TestLayerDims(t *testing.T) {
	m, n, k := MLP1.Dims(2048)
	if m != 2048 || n != 49152 || k != 12288 {
		t.Fatalf("MLP1 dims = %d,%d,%d", m, n, k)
	}
	m, n, k = MLP2.Dims(2048)
	if m != 2048 || n != 12288 || k != 49152 {
		t.Fatalf("MLP2 dims = %d,%d,%d", m, n, k)
	}
}

func TestReplLabel(t *testing.T) {
	if got := (Point{ReplAB: 2, ReplC: 2}).ReplLabel(); got != "2" {
		t.Fatalf("equal factors label = %q", got)
	}
	if got := (Point{ReplAB: 2, ReplC: 6}).ReplLabel(); got != "2-6" {
		t.Fatalf("mixed factors label = %q", got)
	}
}

func TestRunUASane(t *testing.T) {
	res := RunUA(universal.H100System(), 1024, 49152, 12288, PartColumn, 1, 1, universal.StationaryC)
	if res.PercentOfPeak <= 0 || res.PercentOfPeak > 100 {
		t.Fatalf("percent = %g", res.PercentOfPeak)
	}
}

func TestBestUAExcludesZeroComm(t *testing.T) {
	// Even allowing full replication in the sweep, the winner must move
	// bytes (§5.2.1 exclusion).
	opt := Options{Replications: []int{1, 8}, Batches: []int{1024}}
	pt := BestUA(universal.H100System(), MLP1, 1024, PartRow, opt)
	res := RunUA(universal.H100System(), 1024, 49152, 12288, PartRow, pt.ReplAB, pt.ReplC, pt.Stationary)
	if res.RemoteGetBytes+res.RemoteAccumBytes == 0 {
		t.Fatal("winning configuration eliminated communication entirely")
	}
}

// E4 (Figure 2 left) shape assertions on the PVC system, MLP-1.
func TestFigure2MLP1Shape(t *testing.T) {
	fig := RunFigure(universal.PVCSystem(), MLP1, false, quickOpt())
	col := fig.ByName("UA - Column")
	row := fig.ByName("UA - Row")
	dtRow := fig.ByName("DT - Row")

	// Column (moves only the small A) beats Row (moves the giant B) at
	// every batch size.
	for i := range col.Points {
		if col.Points[i].PercentOfPeak <= row.Points[i].PercentOfPeak {
			t.Errorf("batch %d: Column (%.1f%%) should beat Row (%.1f%%)",
				col.Points[i].Batch, col.Points[i].PercentOfPeak, row.Points[i].PercentOfPeak)
		}
	}
	// The best UA series matches or exceeds DT-Row everywhere.
	bestUA := 0.0
	for _, s := range fig.Series {
		if len(s.Name) > 2 && s.Name[:2] == "UA" && s.Best() > bestUA {
			bestUA = s.Best()
		}
	}
	if bestUA < dtRow.Best() {
		t.Errorf("best UA (%.1f%%) below DT-Row (%.1f%%)", bestUA, dtRow.Best())
	}
	// DT-Column is the strong DTensor config; UA-Column must be within the
	// paper's "competitive" margin at the largest batch.
	dtCol := fig.ByName("DT - Column")
	lastUA := col.Points[len(col.Points)-1].PercentOfPeak
	lastDT := dtCol.Points[len(dtCol.Points)-1].PercentOfPeak
	if lastUA < lastDT*0.90 {
		t.Errorf("UA-Column (%.1f%%) not competitive with DT-Column (%.1f%%)", lastUA, lastDT)
	}
}

// E5 (Figure 2 right) shape assertions: MLP-2 favours outer-product style
// and higher replication factors than MLP-1.
func TestFigure2MLP2Shape(t *testing.T) {
	opt := quickOpt()
	fig := RunFigure(universal.PVCSystem(), MLP2, false, opt)
	outer := fig.ByName("UA - Outer Prod.")
	row := fig.ByName("UA - Row")
	last := len(outer.Points) - 1
	if outer.Points[last].PercentOfPeak < row.Points[last].PercentOfPeak {
		t.Errorf("MLP-2: Outer Prod (%.1f%%) should be at least Row (%.1f%%) at large batch",
			outer.Points[last].PercentOfPeak, row.Points[last].PercentOfPeak)
	}
	// Replication should help somewhere on MLP-2 (the paper sees factors
	// above 1 across the board).
	sawRepl := false
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.ReplAB > 1 || pt.ReplC > 1 {
				sawRepl = true
			}
		}
	}
	if !sawRepl {
		t.Error("no MLP-2 configuration benefited from replication")
	}
}

// E6 (Figure 3 left): on H100 the spread between partitionings compresses
// relative to PVC, and COSMA trails the best UA on MLP-1.
func TestFigure3MLP1Shape(t *testing.T) {
	opt := quickOpt()
	pvc := RunFigure(universal.PVCSystem(), MLP1, false, opt)
	h100 := RunFigure(universal.H100System(), MLP1, true, opt)

	spread := func(fig Figure, batchIdx int) float64 {
		lo, hi := 101.0, -1.0
		for _, s := range fig.Series {
			if len(s.Name) < 2 || s.Name[:2] != "UA" {
				continue
			}
			v := s.Points[batchIdx].PercentOfPeak
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	if spread(h100, 0) > spread(pvc, 0) {
		t.Errorf("H100 spread (%.1f) should be narrower than PVC (%.1f) at the smallest batch",
			spread(h100, 0), spread(pvc, 0))
	}

	cosmaS := h100.ByName("COSMA-NCCL")
	bestUA := 0.0
	for _, s := range h100.Series {
		if len(s.Name) > 2 && s.Name[:2] == "UA" && s.Best() > bestUA {
			bestUA = s.Best()
		}
	}
	if cosmaS.Best() >= bestUA {
		t.Errorf("COSMA (%.1f%%) should trail best UA (%.1f%%) on MLP-1", cosmaS.Best(), bestUA)
	}
}

// E7 (Figure 3 right): UA's best matches or exceeds DTensor on H100 MLP-2.
func TestFigure3MLP2Shape(t *testing.T) {
	fig := RunFigure(universal.H100System(), MLP2, true, quickOpt())
	bestUA, bestDT := 0.0, 0.0
	for _, s := range fig.Series {
		switch {
		case len(s.Name) > 2 && s.Name[:2] == "UA":
			if s.Best() > bestUA {
				bestUA = s.Best()
			}
		case len(s.Name) > 2 && s.Name[:2] == "DT":
			if s.Best() > bestDT {
				bestDT = s.Best()
			}
		}
	}
	if bestUA < bestDT*0.95 {
		t.Errorf("best UA (%.1f%%) not within 5%% of best DT (%.1f%%)", bestUA, bestDT)
	}
}

func TestFigureByNamePanics(t *testing.T) {
	fig := Figure{Title: "t"}
	defer func() {
		if recover() == nil {
			t.Fatal("missing series should panic")
		}
	}()
	fig.ByName("nope")
}

func TestPercentOfPeakIncreasesWithBatch(t *testing.T) {
	// Bigger batches amortize overheads: the Column series should be
	// non-decreasing in batch size.
	s := UASeries(universal.H100System(), MLP1, PartColumn, Options{
		Replications: []int{1}, Batches: []int{1024, 2048, 4096, 8192}})
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].PercentOfPeak+0.5 < s.Points[i-1].PercentOfPeak {
			t.Fatalf("percent of peak dropped with batch: %+v", s.Points)
		}
	}
}

func TestStrongScaling(t *testing.T) {
	pts := StrongScaling(MLP1, 8192, []int{1, 2, 4})
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Speedup != 1.0 {
		t.Fatalf("base speedup = %g", pts[0].Speedup)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Makespan >= pts[i-1].Makespan {
			t.Errorf("no strong-scaling benefit from %d to %d nodes: %.4g vs %.4g",
				pts[i-1].Nodes, pts[i].Nodes, pts[i-1].Makespan, pts[i].Makespan)
		}
		if pts[i].Efficiency > 1.01 {
			t.Errorf("superlinear efficiency %.2f at %d nodes (model bug?)", pts[i].Efficiency, pts[i].Nodes)
		}
		if pts[i].Efficiency <= 0 {
			t.Errorf("non-positive efficiency at %d nodes", pts[i].Nodes)
		}
	}
	// Crossing node boundaries costs efficiency: 4 nodes must be below
	// perfect scaling.
	if pts[2].Efficiency >= 0.999 {
		t.Errorf("4-node efficiency %.3f suspiciously perfect despite slow inter-node links", pts[2].Efficiency)
	}
}

func TestRunUATimedAgreesWithEstimate(t *testing.T) {
	// A small problem where real timed execution is cheap: the timed
	// backend's observed makespan and the plan-replay estimator must land
	// within an order of magnitude (they price the same plans over the same
	// topology/device, but the estimator idealizes scheduling).
	sys := universal.H100System()
	cfg := universal.DefaultConfig()
	cfg.Stationary = universal.StationaryC
	timed := RunUATimed(sys, 128, 96, 64, PartBlock, 1, 1, cfg)
	est := RunUA(sys, 128, 96, 64, PartBlock, 1, 1, universal.StationaryC)
	if timed.Makespan <= 0 || est.Makespan <= 0 {
		t.Fatalf("non-positive makespans: timed %g, estimate %g", timed.Makespan, est.Makespan)
	}
	ratio := timed.Makespan / est.Makespan
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("timed %g vs estimated %g makespan (ratio %.2f)", timed.Makespan, est.Makespan, ratio)
	}
	if timed.RemoteGetBytes == 0 {
		t.Fatal("timed run recorded no remote traffic")
	}
}
