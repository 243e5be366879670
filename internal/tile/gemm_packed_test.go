package tile

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The packed kernel must agree with the naive oracle on every shape class
// that shows up in the universal algorithm: degenerate vectors (1×N, N×1),
// single elements, shapes straddling every blocking boundary (mr, nr,
// kcBlock, mcBlock, ncBlock ± 1), and empty matrices.
func TestGemmPackedMatchesNaiveOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	kn := activeKern
	mr, nr := kn.mr, kn.nr
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 64}, {1, 64, 1}, {64, 1, 1},
		{1, 128, 128}, {128, 128, 1}, {128, 1, 128},
		{2, 3, 4}, {5, 7, 9},
		{mr - 1, 10, nr - 1}, {mr + 1, 10, nr + 1},
		{kn.mc - 1, kn.kc - 1, kn.nc/4 - 1},
		{kn.mc + 1, kn.kc + 1, 2*nr + 3},
		{3*mr + 2, 2*kn.kc + 5, 3*nr + 7},
		{100, 257, 33}, {65, 63, 67},
		{0, 5, 5}, {5, 0, 5}, {5, 5, 0},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		want := New(m, n)
		GemmNaive(want, a, b)
		got := New(m, n)
		GemmPacked(got, a, b)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("GemmPacked mismatch for %dx%dx%d: maxdiff %v", m, k, n, got.MaxAbsDiff(want))
		}
	}
}

// Property: for random shapes and random strided sub-views of larger
// buffers (A, B, and C all strided), the packed kernel matches the oracle
// and accumulates into C rather than overwriting it.
func TestGemmPackedPropertyStridedViews(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		bigA := randomMatrix(r, m+r.Intn(5), k+r.Intn(5))
		bigB := randomMatrix(r, k+r.Intn(5), n+r.Intn(5))
		bigC := randomMatrix(r, m+r.Intn(5), n+r.Intn(5))
		a := bigA.View(bigA.Rows-m, bigA.Cols-k, m, k)
		b := bigB.View(bigB.Rows-k, bigB.Cols-n, k, n)
		c := bigC.View(bigC.Rows-m, bigC.Cols-n, m, n)
		want := c.Clone()
		GemmNaive(want, a.Clone(), b.Clone())
		GemmPacked(c, a, b)
		return c.AllClose(want, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The packed path must be allocation-free in the steady state: packing
// scratch comes from a pool, the accumulator tile lives on the stack.
func TestGemmPackedSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool sheds items; alloc counts only meaningful without -race")
	}
	rng := rand.New(rand.NewSource(41))
	a := randomMatrix(rng, 96, 96)
	b := randomMatrix(rng, 96, 96)
	c := New(96, 96)
	GemmPacked(c, a, b) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() {
		GemmPacked(c, a, b)
	})
	if allocs > 0 {
		t.Fatalf("GemmPacked allocates %v objects per call in steady state, want 0", allocs)
	}
}

// Gemm dispatches tiny products to the cache-blocked kernel and large ones
// to the packed kernel; both sides of the threshold must stay correct.
func TestGemmDispatchBothSidesOfThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range [][3]int{{8, 8, 8}, {80, 80, 80}} {
		m, k, n := s[0], s[1], s[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		want := New(m, n)
		GemmNaive(want, a, b)
		got := New(m, n)
		Gemm(got, a, b)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("Gemm mismatch for %dx%dx%d", m, k, n)
		}
	}
}

// benchGemm reports GFLOP/s for one kernel at 512³, the acceptance
// comparison for the packed kernel (PR 3: packed ≥ 2× the seed kernel).
func benchGemm512(b *testing.B, kernel func(c, a, bm *Matrix)) {
	rng := rand.New(rand.NewSource(43))
	a := randomMatrix(rng, 512, 512)
	bm := randomMatrix(rng, 512, 512)
	c := New(512, 512)
	flops := Flops(512, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(c, a, bm)
	}
	b.StopTimer()
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGemmPacked512 vs BenchmarkGemmNaive512 is the kernel pair:
// single-goroutine 512×512×512, packed against the oracle's triple loop.
func BenchmarkGemmPacked512(b *testing.B) { benchGemm512(b, GemmPacked) }
func BenchmarkGemmNaive512(b *testing.B)  { benchGemm512(b, GemmNaive) }
