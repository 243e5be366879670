//go:build amd64 && !purego

package tile

// The amd64 kernel table. Shapes and blocking per variant:
//
//   - avx512: 14×32 accumulator in ZMM0–ZMM27 (28 of 32 registers), two
//     ZMM B loads + 14 VBROADCASTSS + 28 VFMADD231PS per K step. kc=192
//     keeps the B micro-panel (kc×32×4 = 24 KiB) plus the A strip
//     (kc×14×4 ≈ 10.5 KiB) L1-resident; mc=140 (10 strips of 14) makes
//     the packed A panel ~105 KiB, safely L2-resident.
//   - avx2: 6×16 accumulator in YMM0–YMM11 (the classic FMA shape), two
//     YMM B loads + 6 VBROADCASTSS + 12 VFMADD231PS per K step. kc=256:
//     B micro-panel 16 KiB + A strip 6 KiB in L1; mc=132 (22 strips of
//     6) → ~132 KiB packed A panel in L2.
//   - sse2: the baseline 4×8 kernel (no feature detection needed),
//     unchanged from PR 3.
//
// buildKernelTable runs during package variable initialization (before any
// init function that could call Gemm), best variant first.
func buildKernelTable() []*kernelImpl {
	detectCPU()
	var t []*kernelImpl
	if hasAVX512 {
		t = append(t, &kernelImpl{
			name: "avx512",
			mr:   14, nr: 32,
			kc: 192, mc: 140, nc: 2048,
			id: kidAVX512,
		})
	}
	if hasAVX2FMA {
		t = append(t, &kernelImpl{
			name: "avx2",
			mr:   6, nr: 16,
			kc: 256, mc: 132, nc: 2048,
			id: kidAVX2,
		})
	}
	t = append(t, &kernelImpl{
		name: "sse2",
		mr:   4, nr: 8,
		kc: 256, mc: 128, nc: 1024,
		id: kidSSE2,
	}, goKernel)
	return t
}

// callKernel dispatches a micro-kernel id as a direct call so the
// //go:noescape annotations hold.
func callKernel(id kernID, acc, a *float32, rs, ks int, b *float32, ldb, kc int) {
	switch id {
	case kidAVX512:
		microKernelAVX512(acc, a, rs, ks, b, ldb, kc)
	case kidAVX2:
		microKernelAVX2(acc, a, rs, ks, b, ldb, kc)
	case kidSSE2:
		microKernelSSE2(acc, a, rs, ks, b, ldb, kc)
	default:
		microKernelGo(acc, a, rs, ks, b, ldb, kc)
	}
}

// callKernelC runs the direct-into-C interior-tile variant when the id has
// one, returning false to send the caller down the acc+masked-add path.
func callKernelC(id kernID, c *float32, ldc int, a *float32, rs, ks int, b *float32, ldb, kc int) bool {
	switch id {
	case kidAVX512:
		microKernelAVX512C(c, ldc, a, rs, ks, b, ldb, kc)
		return true
	case kidAVX2:
		microKernelAVX2C(c, ldc, a, rs, ks, b, ldb, kc)
		return true
	}
	return false
}

// addVec is AddInto's body: the YMM kernel wherever the CPUID table found
// usable YMM state (it is memory-bound, so the avx512 variant shares it),
// the Go loop on SSE2-only parts. len(dst) == len(src) > 0.
func addVec(dst, src []float32) {
	if hasAVX2FMA {
		addVecAVX2(&dst[0], &src[0], len(src))
		return
	}
	addVecGo(dst, src)
}
