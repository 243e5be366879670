package tile

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.FillRandom(rng)
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(5, 7)
	m.Set(2, 3, 42)
	if m.At(2, 3) != 42 {
		t.Fatal("Set/At round trip failed")
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) should panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestFromSliceAliases(t *testing.T) {
	buf := make([]float32, 6)
	m := FromSlice(2, 3, buf)
	m.Set(1, 2, 9)
	if buf[5] != 9 {
		t.Fatal("FromSlice must alias the buffer")
	}
}

func TestFromSliceTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with short buffer should panic")
		}
	}()
	FromSlice(3, 3, make([]float32, 8))
}

func TestViewAliasesAndStride(t *testing.T) {
	m := New(6, 6)
	v := m.View(2, 3, 2, 2)
	v.Set(0, 0, 5)
	v.Set(1, 1, 7)
	if m.At(2, 3) != 5 || m.At(3, 4) != 7 {
		t.Fatal("view writes must be visible in parent")
	}
	if v.IsDense() {
		t.Fatal("interior view should be strided, not dense")
	}
}

func TestViewZeroSized(t *testing.T) {
	m := New(4, 4)
	v := m.View(2, 1, 0, 3)
	if !v.IsDense() && v.Rows != 0 {
		t.Fatal("zero-row view misbehaves")
	}
	if v.Rows != 0 || v.Cols != 3 {
		t.Fatalf("zero view shape = %dx%d", v.Rows, v.Cols)
	}
}

func TestViewOutOfBoundsPanics(t *testing.T) {
	m := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds view should panic")
		}
	}()
	m.View(2, 2, 3, 3)
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4, 5)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone should equal source")
	}
	c.Set(0, 0, 999)
	if m.At(0, 0) == 999 {
		t.Fatal("clone must not alias source")
	}
}

func TestCopyFromStridedView(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 8, 8)
	v := m.View(2, 2, 3, 3)
	dst := New(3, 3)
	dst.CopyFrom(v)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if dst.At(i, j) != m.At(2+i, 2+j) {
				t.Fatalf("copy mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestZeroAndFillRespectStride(t *testing.T) {
	m := New(4, 4)
	m.Fill(3)
	v := m.View(1, 1, 2, 2)
	v.Zero()
	if m.At(0, 0) != 3 || m.At(3, 3) != 3 {
		t.Fatal("Zero on view leaked outside the view")
	}
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("Zero on view did not clear the view")
	}
}

func TestAddFromAndScale(t *testing.T) {
	a := New(2, 2)
	a.Fill(1)
	b := New(2, 2)
	b.Fill(2)
	a.AddFrom(b)
	if a.At(0, 0) != 3 {
		t.Fatal("AddFrom wrong")
	}
	a.Scale(2)
	if a.At(1, 1) != 6 {
		t.Fatal("Scale wrong")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 3, 5)
	tr := m.Transpose()
	if tr.Rows != 5 || tr.Cols != 3 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose element mismatch")
			}
		}
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("double transpose should be identity")
	}
}

func TestMaxAbsDiffAndAllClose(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	b.Set(1, 1, 0.5)
	if d := a.MaxAbsDiff(b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if a.AllClose(b, 1e-3) {
		t.Fatal("AllClose should fail at tol 1e-3")
	}
	if !a.AllClose(b, 0.6) {
		t.Fatal("AllClose should pass at tol 0.6")
	}
}

func TestGemmNaiveKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := New(2, 2)
	GemmNaive(c, a, b)
	want := FromSlice(2, 2, []float32{58, 64, 139, 154})
	if !c.Equal(want) {
		t.Fatalf("GemmNaive = %v, want %v", c.Data, want.Data)
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := FromSlice(1, 1, []float32{2})
	b := FromSlice(1, 1, []float32{3})
	c := FromSlice(1, 1, []float32{10})
	Gemm(c, a, b)
	if c.At(0, 0) != 16 {
		t.Fatalf("Gemm must accumulate into C, got %v", c.At(0, 0))
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	Gemm(New(2, 2), New(2, 3), New(4, 2))
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {64, 64, 64}, {65, 63, 67}, {128, 1, 128}, {1, 128, 1}, {100, 257, 33}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		want := New(m, n)
		GemmNaive(want, a, b)
		got := New(m, n)
		Gemm(got, a, b)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("Gemm mismatch for %dx%dx%d: maxdiff %v", m, k, n, got.MaxAbsDiff(want))
		}
	}
}

func TestGemmOnStridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big := randomMatrix(rng, 50, 50)
	a := big.View(3, 5, 20, 15)
	b := big.View(10, 20, 15, 18)
	want := New(20, 18)
	GemmNaive(want, a.Clone(), b.Clone())
	cParent := New(40, 40)
	c := cParent.View(7, 9, 20, 18)
	Gemm(c, a, b)
	if !c.AllClose(want, 1e-4) {
		t.Fatalf("strided-view gemm mismatch: %v", c.MaxAbsDiff(want))
	}
	// Writes must not leak outside the C view.
	if cParent.At(0, 0) != 0 || cParent.At(39, 39) != 0 {
		t.Fatal("gemm wrote outside C view")
	}
}

// Property: GEMM is linear in A — (A1+A2)*B == A1*B + A2*B.
func TestGemmLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a1 := randomMatrix(rng, m, k)
		a2 := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		sum := a1.Clone()
		sum.AddFrom(a2)
		lhs := New(m, n)
		Gemm(lhs, sum, b)
		rhs := New(m, n)
		Gemm(rhs, a1, b)
		Gemm(rhs, a2, b)
		return lhs.AllClose(rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFlops(t *testing.T) {
	if Flops(2, 3, 4) != 48 {
		t.Fatalf("Flops(2,3,4) = %v", Flops(2, 3, 4))
	}
}

func BenchmarkGemm256(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := randomMatrix(rng, 256, 256)
	bm := randomMatrix(rng, 256, 256)
	c := New(256, 256)
	b.SetBytes(int64(Flops(256, 256, 256)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, a, bm)
	}
}

func TestGemmTVariantsMatchExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	shapes := [][3]int{{5, 7, 9}, {64, 64, 64}, {33, 65, 17}, {1, 8, 3}}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		want := New(m, n)
		GemmNaive(want, a, b)

		at := a.Transpose() // k x m
		bt := b.Transpose() // n x k

		tn := New(m, n)
		GemmT(tn, at, b, Trans, NoTrans)
		if !tn.AllClose(want, 1e-4) {
			t.Fatalf("%dx%dx%d gemmTN mismatch: %g", m, n, k, tn.MaxAbsDiff(want))
		}
		nt := New(m, n)
		GemmT(nt, a, bt, NoTrans, Trans)
		if !nt.AllClose(want, 1e-4) {
			t.Fatalf("%dx%dx%d gemmNT mismatch: %g", m, n, k, nt.MaxAbsDiff(want))
		}
		tt := New(m, n)
		GemmT(tt, at, bt, Trans, Trans)
		if !tt.AllClose(want, 1e-4) {
			t.Fatalf("%dx%dx%d gemmTT mismatch: %g", m, n, k, tt.MaxAbsDiff(want))
		}
		nn := New(m, n)
		GemmT(nn, a, b, NoTrans, NoTrans)
		if !nn.AllClose(want, 1e-4) {
			t.Fatalf("%dx%dx%d gemmNN mismatch: %g", m, n, k, nn.MaxAbsDiff(want))
		}
	}
}

func TestGemmTAccumulates(t *testing.T) {
	a := FromSlice(1, 1, []float32{2}) // stored transposed: 1x1 either way
	b := FromSlice(1, 1, []float32{3})
	c := FromSlice(1, 1, []float32{10})
	GemmT(c, a, b, Trans, NoTrans)
	if c.At(0, 0) != 16 {
		t.Fatalf("GemmT must accumulate, got %v", c.At(0, 0))
	}
}

func TestGemmTShapeMismatchPanics(t *testing.T) {
	for _, flags := range [][2]TransFlag{{Trans, NoTrans}, {NoTrans, Trans}, {Trans, Trans}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("flags %v: shape mismatch should panic", flags)
				}
			}()
			GemmT(New(2, 2), New(3, 3), New(4, 4), flags[0], flags[1])
		}()
	}
}

func TestGemmTOnStridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big := randomMatrix(rng, 40, 40)
	at := big.View(2, 3, 12, 9) // k=12 x m=9 (stores A^T)
	b := big.View(15, 1, 12, 11)
	want := New(9, 11)
	GemmNaive(want, at.Clone().Transpose(), b.Clone())
	got := New(9, 11)
	GemmT(got, at, b, Trans, NoTrans)
	if !got.AllClose(want, 1e-4) {
		t.Fatalf("strided gemmTN mismatch: %g", got.MaxAbsDiff(want))
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	c := RandomCSR(rng, 17, 23, 0.2)
	dense := c.ToDense()
	back := NewCSRFromDense(dense, 0)
	if !back.ToDense().Equal(dense) {
		t.Fatal("CSR <-> dense round trip failed")
	}
	if c.NNZ() == 0 {
		t.Fatal("random CSR has no entries")
	}
}

func TestCSRWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := RandomCSR(rng, 20, 20, 0.3)
	dense := c.ToDense()
	win := c.Window(3, 11, 5, 17)
	want := New(8, 12)
	want.CopyFrom(dense.View(3, 5, 8, 12))
	if !win.ToDense().Equal(want) {
		t.Fatal("CSR window mismatch")
	}
	// Degenerate windows.
	if empty := c.Window(5, 5, 0, 20); empty.NNZ() != 0 || empty.Rows != 0 {
		t.Fatal("empty row window should have no entries")
	}
}

func TestCSRWindowOutOfRangePanics(t *testing.T) {
	c := RandomCSR(rand.New(rand.NewSource(1)), 4, 4, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range window should panic")
		}
	}()
	c.Window(0, 5, 0, 4)
}

func TestSpMMMatchesDenseGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, d := range []float64{0, 0.05, 0.3, 1.0} {
		a := RandomCSR(rng, 31, 27, d)
		b := randomMatrix(rng, 27, 19)
		want := New(31, 19)
		GemmNaive(want, a.ToDense(), b)
		got := New(31, 19)
		SpMM(got, a, b)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("density %g: SpMM mismatch %g", d, got.MaxAbsDiff(want))
		}
	}
}

func TestEncodeDecodeCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := RandomCSR(rng, 13, 29, 0.25)
	buf := EncodeCSR(c)
	if len(buf) != EncodedCSRLen(c.Rows, c.NNZ()) {
		t.Fatalf("encoded length %d, want %d", len(buf), EncodedCSRLen(c.Rows, c.NNZ()))
	}
	back := DecodeCSR(buf, 13, 29)
	if !back.ToDense().Equal(c.ToDense()) {
		t.Fatal("encode/decode round trip failed")
	}
}

func TestDecodeCSRShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer should panic")
		}
	}()
	DecodeCSR(make([]float32, 3), 10, 10)
}
