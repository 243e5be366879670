package tile

import "unsafe"

// goMR/goNR is the register-tile shape of the portable Go micro-kernel
// (goKernel in dispatch.go).
const (
	goMR = 4
	goNR = 8
)

// microKernelGo computes acc = Astrip·Bstrip for one 4×8 register tile
// under the shared strided contract: A element (r, kk) is a[r*rs + kk*ks],
// B row kk is the 8 floats at b[kk*ldb]. acc (row-major, stride 8) is
// overwritten, not accumulated into. Portable fallback and reference for
// the assembly kernels; like them it addresses its operands by pointer
// and stride (a bounds-checked slice index per A element costs the Go
// kernel a third of its speed), reading exactly 4×kc elements of A and
// kc×8 of B. Fixed-size-array B rows keep the inner loop
// bounds-check-free, and the 4-way K unroll amortizes loop overhead.
func microKernelGo(acc, a *float32, rs, ks int, b *float32, ldb, kc int) {
	at := func(r, kk int) float32 {
		return *(*float32)(unsafe.Add(unsafe.Pointer(a), (r*rs+kk*ks)*4))
	}
	row := func(kk int) *[goNR]float32 {
		return (*[goNR]float32)(unsafe.Add(unsafe.Pointer(b), kk*ldb*4))
	}
	var acc0, acc1, acc2, acc3 [goNR]float32
	kk := 0
	for ; kk+3 < kc; kk += 4 {
		a00, a01, a02, a03 := at(0, kk), at(1, kk), at(2, kk), at(3, kk)
		a10, a11, a12, a13 := at(0, kk+1), at(1, kk+1), at(2, kk+1), at(3, kk+1)
		a20, a21, a22, a23 := at(0, kk+2), at(1, kk+2), at(2, kk+2), at(3, kk+2)
		a30, a31, a32, a33 := at(0, kk+3), at(1, kk+3), at(2, kk+3), at(3, kk+3)
		b0, b1, b2, b3 := row(kk), row(kk+1), row(kk+2), row(kk+3)
		for j := 0; j < goNR; j++ {
			v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
			acc0[j] += a00*v0 + a10*v1 + a20*v2 + a30*v3
			acc1[j] += a01*v0 + a11*v1 + a21*v2 + a31*v3
			acc2[j] += a02*v0 + a12*v1 + a22*v2 + a32*v3
			acc3[j] += a03*v0 + a13*v1 + a23*v2 + a33*v3
		}
	}
	for ; kk < kc; kk++ {
		a0, a1, a2, a3 := at(0, kk), at(1, kk), at(2, kk), at(3, kk)
		for j, v := range row(kk) {
			acc0[j] += a0 * v
			acc1[j] += a1 * v
			acc2[j] += a2 * v
			acc3[j] += a3 * v
		}
	}
	out := unsafe.Slice(acc, goMR*goNR)
	copy(out[0*goNR:1*goNR], acc0[:])
	copy(out[1*goNR:2*goNR], acc1[:])
	copy(out[2*goNR:3*goNR], acc2[:])
	copy(out[3*goNR:4*goNR], acc3[:])
}

// addVecGo is the portable dst[i] += src[i] loop behind AddInto: the
// 4-way unrolled body keeps it bounds-check-free and exposes four
// independent dependency chains. len(dst) == len(src).
func addVecGo(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	for ; i+3 < len(src); i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < len(src); i++ {
		dst[i] += src[i]
	}
}
