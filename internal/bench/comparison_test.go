package bench

import (
	"testing"

	"slicing/internal/universal"
)

func TestOptimizeCoversAllProcessors(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 12, 16} {
		d := optimizeCOSMA(4096, 4096, 4096, p)
		if d.Pm*d.Pn*d.Pk != p {
			t.Errorf("p=%d: grid %dx%dx%d does not multiply to p", p, d.Pm, d.Pn, d.Pk)
		}
	}
}

func TestOptimizeSquareProblemPrefers2D(t *testing.T) {
	// For a square problem on a square processor count, splitting m and n
	// evenly beats heavy k-replication.
	d := optimizeCOSMA(8192, 8192, 8192, 16)
	if d.Pm != 4 || d.Pn != 4 {
		t.Errorf("square problem picked %+v, want 4x4 spatial grid", d)
	}
}

func TestOptimizeTallSkinnyUsesReplication(t *testing.T) {
	// MLP-2-like: enormous k. Splitting k (replication) saves the most
	// communication.
	d := optimizeCOSMA(1024, 12288, 49152, 8)
	if d.Pk <= 1 {
		t.Errorf("huge-k problem should split k, got %+v", d)
	}
}

// The COSMA rows of internal/universal's TestUniversalityTable hard-code
// these bricks (that package cannot import this one); the model must keep
// choosing them.
func TestOptimizeMatchesUniversalityTableBricks(t *testing.T) {
	for _, tc := range []struct{ m, n, k, p, pm, pn, pk int }{
		{24, 28, 32, 4, 2, 2, 1},
		{26, 30, 34, 8, 2, 4, 1},
		{36, 24, 48, 12, 4, 3, 1},
		{16, 16, 256, 8, 1, 1, 8},
	} {
		d := optimizeCOSMA(tc.m, tc.n, tc.k, tc.p)
		if d.Pm != tc.pm || d.Pn != tc.pn || d.Pk != tc.pk {
			t.Errorf("%dx%dx%d on %d: grid %dx%dx%d, the table has %dx%dx%d",
				tc.m, tc.n, tc.k, tc.p, d.Pm, d.Pn, d.Pk, tc.pm, tc.pn, tc.pk)
		}
	}
}

func TestVolumeModelSanity(t *testing.T) {
	// No replication: A and B bricks of 50×100 each, C free. With k split
	// two ways the bricks halve and the C brick's reduce+broadcast costs
	// 2·50·50.
	if v := cosmaVolume(100, 100, 100, 2, 2, 1); v != 10000 {
		t.Errorf("2x2x1 volume = %g, want 10000", v)
	}
	if v := cosmaVolume(100, 100, 100, 2, 2, 2); v != 10000 {
		t.Errorf("2x2x2 volume = %g, want 10000", v)
	}
	if cosmaVolume(100, 100, 100, 1, 1, 1) <= 0 {
		t.Error("volume must be positive")
	}
}

func TestSimulateProducesSaneNumbers(t *testing.T) {
	d, res := simulateCOSMA(universal.H100System(), 4096, 4096, 4096)
	if d.Pm*d.Pn*d.Pk != 8 {
		t.Fatalf("decomposition %+v does not cover 8 GPUs", d)
	}
	if res.PercentOfPeak <= 0 || res.PercentOfPeak > 100 {
		t.Fatalf("percent of peak = %g", res.PercentOfPeak)
	}
}

// Figure 3 shape: COSMA on MLP-1 should trail a communication-free
// column-parallel execution because of its group collective.
func TestSimulateCosmaTrailsOnMLP1(t *testing.T) {
	sys := universal.H100System()
	_, cosmaRes := simulateCOSMA(sys, 8192, 49152, 12288)
	colGemm := sys.Dev.GemmTime(8192, 49152/8, 12288) + sys.Dev.LaunchOverhead
	colPct := 2.0 * 8192 * 49152 * 12288 / (8 * sys.Dev.PeakFlops * colGemm) * 100
	if cosmaRes.PercentOfPeak >= colPct {
		t.Fatalf("COSMA (%.1f%%) should trail comm-free column parallel (%.1f%%) on MLP-1",
			cosmaRes.PercentOfPeak, colPct)
	}
}

func TestSimulateMatmulColumnNoComm(t *testing.T) {
	sys := universal.H100System()
	res := dtensorColumn(sys, 4096, 49152, 12288)
	// Megatron-style column matmul: the local GEMM and a launch, no comm.
	if want := sys.Dev.GemmTime(4096, 49152/8, 12288) + sys.Dev.LaunchOverhead; res.Makespan != want {
		t.Fatalf("column matmul takes %g s, want its GEMM alone: %g s", res.Makespan, want)
	}
	if res.PercentOfPeak <= 0 || res.PercentOfPeak > 100 {
		t.Fatalf("percent of peak = %g", res.PercentOfPeak)
	}
}

func TestSimulateMatmulRowPaysAllReduce(t *testing.T) {
	sys := universal.PVCSystem()
	row := dtensorRow(sys, 1024, 49152, 12288)
	col := dtensorColumn(sys, 1024, 49152, 12288)
	if gemm := sys.Dev.GemmTime(1024, 49152, 12288/12) + sys.Dev.LaunchOverhead; row.Makespan <= gemm {
		t.Fatalf("row partitioning must all-reduce the output: %g s, GEMM alone %g s", row.Makespan, gemm)
	}
	if row.Makespan <= col.Makespan {
		t.Fatalf("on MLP-1 with slow links, DT-Row (%.4g) should be slower than DT-Column (%.4g)",
			row.Makespan, col.Makespan)
	}
}
