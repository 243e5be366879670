package tile

import "fmt"

// GemmNaive computes C += A*B with the textbook triple loop. It is the
// correctness oracle for the optimized kernels and for every distributed
// algorithm in this repository.
func GemmNaive(c, a, b *Matrix) {
	checkGemmShapes(c, a, b)
	for i := 0; i < a.Rows; i++ {
		for l := 0; l < a.Cols; l++ {
			av := a.Data[i*a.Stride+l]
			if av == 0 {
				continue
			}
			brow := b.Data[l*b.Stride : l*b.Stride+b.Cols]
			crow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// blockSize is the cache-blocking factor of gemmBlocked. 64×64 float32
// panels (16 KiB each) fit comfortably in L1/L2 on commodity CPUs.
const blockSize = 64

// packThreshold is the problem volume (m·k·n) below which Gemm skips the
// packed kernel: for tiny products the O(mk + kn) packing traffic and the
// micro-kernel's fixed setup are not amortized by the O(mnk) compute, so
// the cache-blocked kernel wins. Measured crossover on AVX2/FMA hardware
// is between 8³ and 12³ (the packed kernel is already ~1.5× faster at 12³
// and ~6× at 24³), so the threshold sits at ~10³.
const packThreshold = 1024

// Gemm computes C += A*B. It is the default single-goroutine local GEMM:
// large products go through the packed register-blocked kernel
// (GemmPacked); tiny ones, where packing cannot be amortized, through the
// cache-blocked, 2-way unrolled kernel (gemmBlocked).
func Gemm(c, a, b *Matrix) {
	checkGemmShapes(c, a, b)
	if a.Rows*a.Cols*b.Cols < packThreshold {
		gemmBlocked(c, a, b)
		return
	}
	gemmPacked(c, a, b)
}

func gemmBlocked(c, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i0 := 0; i0 < m; i0 += blockSize {
		iMax := min(i0+blockSize, m)
		for l0 := 0; l0 < k; l0 += blockSize {
			lMax := min(l0+blockSize, k)
			for j0 := 0; j0 < n; j0 += blockSize {
				jMax := min(j0+blockSize, n)
				gemmBlock(c, a, b, i0, iMax, l0, lMax, j0, jMax)
			}
		}
	}
}

// gemmBlock computes the contribution of A[i0:iMax, l0:lMax]*B[l0:lMax,
// j0:jMax] into C[i0:iMax, j0:jMax] with a 2-way unrolled inner kernel.
func gemmBlock(c, a, b *Matrix, i0, iMax, l0, lMax, j0, jMax int) {
	for i := i0; i < iMax; i++ {
		crow := c.Data[i*c.Stride+j0 : i*c.Stride+jMax]
		arow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		l := l0
		for ; l+1 < lMax; l += 2 {
			a0, a1 := arow[l], arow[l+1]
			if a0 == 0 && a1 == 0 {
				continue
			}
			b0 := b.Data[l*b.Stride+j0 : l*b.Stride+jMax]
			b1 := b.Data[(l+1)*b.Stride+j0 : (l+1)*b.Stride+jMax]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j]
			}
		}
		for ; l < lMax; l++ {
			a0 := arow[l]
			if a0 == 0 {
				continue
			}
			b0 := b.Data[l*b.Stride+j0 : l*b.Stride+jMax]
			for j := range crow {
				crow[j] += a0 * b0[j]
			}
		}
	}
}

func checkGemmShapes(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tile: gemm shape mismatch C %dx%d = A %dx%d * B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Flops returns the number of floating-point operations for an m×k by k×n
// GEMM (2*m*n*k: one multiply and one add per inner-product term).
func Flops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }
