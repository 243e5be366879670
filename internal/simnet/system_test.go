package simnet

import (
	"testing"

	"slicing/internal/gpusim"
)

func testSystem(p int) System {
	return System{Topo: NewUniform(p, 100e9, 1000e9, 1e-6, "test"), Dev: gpusim.PresetH100Device()}
}

func TestGemmCostPositive(t *testing.T) {
	sys := testSystem(4)
	if sys.Gemm(128, 128, 128) <= 0 {
		t.Fatal("gemm cost must be positive")
	}
	if sys.Gemm(1024, 1024, 1024) <= sys.Gemm(128, 128, 128) {
		t.Fatal("bigger gemm must cost more")
	}
}

func TestFetchCostLocalVsRemote(t *testing.T) {
	sys := testSystem(4)
	local := sys.Fetch(1, 1, 1<<20)
	remote := sys.Fetch(0, 1, 1<<20)
	if local >= remote {
		t.Fatalf("local fetch (%g) should be cheaper than remote (%g)", local, remote)
	}
}

func TestAccumCostSlowerThanFetch(t *testing.T) {
	sys := testSystem(4)
	fetch := sys.Fetch(0, 1, 1<<20)
	accum := sys.Accum(0, 1, 1<<20)
	if accum <= fetch {
		t.Fatalf("remote accumulate (%g) should cost more than get (%g) at 0.8x bandwidth", accum, fetch)
	}
}
