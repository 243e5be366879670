package tile

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// forceKernel switches the dispatched variant for a test and restores it
// on cleanup.
func forceKernel(t *testing.T, name string) {
	t.Helper()
	prev, err := SetKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetKernel(prev) })
}

// forEachVariantLayout runs f once per (dispatched variant × side of the
// pack-vs-in-place rule): every kernel must be exact through both the
// packed layout and the operands' own strides.
func forEachVariantLayout(t *testing.T, f func(t *testing.T, kn *kernelImpl)) {
	for _, name := range KernelVariants() {
		t.Run(name, func(t *testing.T) {
			forceKernel(t, name)
			for _, layout := range []string{"inplace", "packed"} {
				t.Run(layout, func(t *testing.T) {
					forceLayout(t, layout == "inplace")
					f(t, activeKern)
				})
			}
		})
	}
}

// framed returns a random rows×cols view with Stride > Cols, and the
// buffer it is carved from: every cell outside the view — a row above and
// below, pad cells either side of each row — holds NaN, so a kernel that
// reads outside the view poisons its result and one that writes outside
// it erases part of the frame.
func framed(rng *rand.Rand, rows, cols, pad int) (view, buf *Matrix) {
	buf = New(rows+2, cols+2*pad)
	buf.Fill(float32(math.NaN()))
	view = buf.View(1, pad, rows, cols)
	view.FillRandom(rng)
	return view, buf
}

func countNaN(m *Matrix) (n int) {
	for _, v := range m.Data {
		if v != v {
			n++
		}
	}
	return n
}

// checkGemmFramed multiplies NaN-framed strided views through GemmPacked
// and checks C against the oracle and C's buffer for NaNs gained (an
// out-of-view read reached C) or lost (an out-of-view write).
func checkGemmFramed(rng *rand.Rand, m, k, n, padA, padB int) error {
	a, _ := framed(rng, m, k, padA)
	b, _ := framed(rng, k, n, padB)
	c, cbuf := framed(rng, m, n, 2)
	frame := countNaN(cbuf)
	want := c.Clone()
	GemmNaive(want, a.Clone(), b.Clone())
	GemmPacked(c, a, b)
	if got := countNaN(cbuf); got != frame {
		return fmt.Errorf("%dx%dx%d (A stride %d, B stride %d): C's buffer holds %d NaNs, want %d: the kernel touched memory outside a view",
			m, k, n, a.Stride, b.Stride, got, frame)
	}
	if !c.AllClose(want, 1e-4) {
		return fmt.Errorf("%dx%dx%d (A stride %d, B stride %d): maxdiff %v",
			m, k, n, a.Stride, b.Stride, c.MaxAbsDiff(want))
	}
	return nil
}

// edgeShapes is every combination of the dimensions at which a layout can
// go wrong for kn: one row/column, one short of a strip, a full strip, one
// over, several strips plus a ragged one; K of one step, a few, a full
// panel, and one over.
func edgeShapes(kn *kernelImpl) (shapes [][3]int) {
	for _, m := range []int{1, kn.mr - 1, kn.mr, kn.mr + 1, 2*kn.mr + 3} {
		for _, n := range []int{1, kn.nr - 1, kn.nr, kn.nr + 1, 3 * kn.nr} {
			for _, k := range []int{1, 7, kn.kc, kn.kc + 1} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return shapes
}

// Every dispatched variant — not just the one this machine would pick —
// must agree with the naive oracle, on both layouts, on shapes that
// straddle its own blocking boundaries (mr, nr, kc, mc ± 1), primes,
// degenerate vectors, and empties; and on every strip-edge shape it must
// do so from strided views without touching a cell outside them.
func TestKernelVariantsMatchNaiveOddShapes(t *testing.T) {
	forEachVariantLayout(t, func(t *testing.T, kn *kernelImpl) {
		rng := rand.New(rand.NewSource(44))
		shapes := [][3]int{
			{1, 1, 1}, {1, 1, 64}, {1, 64, 1}, {64, 1, 1},
			{kn.mr - 1, 10, kn.nr - 1}, {kn.mr + 1, 10, kn.nr + 1},
			{kn.mr, kn.kc, kn.nr}, // exactly one interior register tile
			{2 * kn.mr, 2 * kn.kc, 2 * kn.nr},
			{kn.mc - 1, kn.kc - 1, kn.nr*3 - 1},
			{kn.mc + 1, kn.kc + 1, kn.nr*3 + 1},
			{3*kn.mr + 2, 2*kn.kc + 5, 3*kn.nr + 7},
			{97, 101, 103}, {31, 127, 61}, // primes
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
			if !got.AllClose(want, 1e-3) {
				t.Fatalf("mismatch for %dx%dx%d: maxdiff %v", m, k, n, got.MaxAbsDiff(want))
			}
		}
		for _, s := range edgeShapes(kn) {
			if err := checkGemmFramed(rng, s[0], s[1], s[2], 1, 3); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// Property: every variant, on both layouts, handles random strided
// sub-views of larger buffers (A, B, and C all strided) and accumulates
// into C rather than overwriting it — the direct-into-C interior path
// must respect both — and never reads or writes outside a view.
func TestKernelVariantsPropertyStridedViews(t *testing.T) {
	forEachVariantLayout(t, func(t *testing.T, _ *kernelImpl) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			m, k, n := 1+r.Intn(60), 1+r.Intn(60), 1+r.Intn(60)
			bigA := randomMatrix(r, m+r.Intn(5), k+r.Intn(5))
			bigB := randomMatrix(r, k+r.Intn(5), n+r.Intn(5))
			bigC := randomMatrix(r, m+r.Intn(5), n+r.Intn(5))
			a := bigA.View(bigA.Rows-m, bigA.Cols-k, m, k)
			b := bigB.View(bigB.Rows-k, bigB.Cols-n, k, n)
			c := bigC.View(bigC.Rows-m, bigC.Cols-n, m, n)
			want := c.Clone()
			GemmNaive(want, a.Clone(), b.Clone())
			GemmPacked(c, a, b)
			if !c.AllClose(want, 1e-3) {
				return false
			}
			if err := checkGemmFramed(r, m, k, n, 1+r.Intn(4), 1+r.Intn(4)); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

// FuzzGemmLayouts drives the active kernel through both sides of the
// pack-vs-in-place rule on NaN-framed views of fuzzed shape and stride
// padding. Seeded with every strip-edge shape of the active kernel.
func FuzzGemmLayouts(f *testing.F) {
	for _, s := range edgeShapes(activeKern) {
		if s[1] < 256 {
			f.Add(uint8(s[0]), uint8(s[2]), uint8(s[1]), uint8(1), uint8(3))
		}
	}
	f.Fuzz(func(t *testing.T, m, n, k, strideA, strideB uint8) {
		for _, inPlace := range []bool{true, false} {
			forceLayout(t, inPlace) // cleanups unwind both at the end of the call
			err := checkGemmFramed(rand.New(rand.NewSource(51)), int(m), int(k), int(n), 1+int(strideA%8), 1+int(strideB%8))
			if err != nil {
				t.Fatalf("inPlace=%v: %v", inPlace, err)
			}
		}
	})
}

// TestKernelDispatchSmoke logs which micro-kernel the runtime dispatch
// selected and which are available — CI runs it with -v on every push so
// the selected ISA on the runner is visible in the log.
func TestKernelDispatchSmoke(t *testing.T) {
	t.Logf("GOARCH=%s GOMAXPROCS=%d", runtime.GOARCH, runtime.GOMAXPROCS(0))
	t.Logf("selected kernel: %s", KernelDescription())
	t.Logf("available variants: %v", KernelVariants())
	found := false
	for _, v := range KernelVariants() {
		if v == KernelName() {
			found = true
		}
	}
	if !found {
		t.Fatalf("selected kernel %q not among available variants %v", KernelName(), KernelVariants())
	}
}

func TestSetKernelUnknownRejected(t *testing.T) {
	prev := KernelName()
	if _, err := SetKernel("mmx"); err == nil {
		t.Fatal("SetKernel(\"mmx\") should fail")
	}
	if KernelName() != prev {
		t.Fatalf("failed SetKernel changed the active kernel: %s -> %s", prev, KernelName())
	}
}

// forceLayout pins the pack-vs-in-place rule to one side for a test or
// benchmark — every strip in place (ragged edges still packed), or every
// panel packed — and restores the calibrated rule on cleanup.
func forceLayout(tb testing.TB, inPlace bool) {
	tb.Helper()
	prev := inPlaceMaxReuse
	if inPlace {
		inPlaceMaxReuse = math.MaxInt
	} else {
		inPlaceMaxReuse = 0
	}
	tb.Cleanup(func() { inPlaceMaxReuse = prev })
}

// BenchmarkGemm is the calibration of inPlaceMaxReuse: single-goroutine
// Gemm at n³ with both operands forced in place, forced packed, and under
// the rule, on the active kernel (set SLICING_GEMM_KERNEL=avx2 for the
// other column of the table in docs/PERFORMANCE.md).
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{32, 72, 128, 256, 512} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(50))
			a := randomMatrix(rng, n, n)
			bm := randomMatrix(rng, n, n)
			c := New(n, n)
			for _, layout := range []string{"inplace", "packed", "rule"} {
				b.Run(layout, func(b *testing.B) {
					if layout != "rule" {
						forceLayout(b, layout == "inplace")
					}
					Gemm(c, a, bm) // warm the scratch pool
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						Gemm(c, a, bm)
					}
					b.StopTimer()
					b.ReportMetric(Flops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		})
	}
}
