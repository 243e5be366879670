//go:build amd64 && !purego

package tile

// The assembly micro-kernels (microkernel_amd64.s). All share one
// contract: acc[0:mr*nr] = Astrip·Bstrip for their register-tile shape
// over kc steps, where A element (r, kk) is a[r*rs + kk*ks] and B row kk
// is the nr floats at b[kk*ldb] (strides in elements). A packed strip is
// (rs=1, ks=mr, ldb=nr); an operand used in place is (rs=a.Stride, ks=1,
// ldb=b.Stride) — one routine, two layouts. The kernels read exactly
// mr×kc elements of A and kc×nr of B, so an in-place strip must lie
// wholly inside its view. acc (row-major, stride nr) is overwritten, not
// accumulated into; the caller masks the valid window into C. Which one
// runs is decided by the dispatch table (kernels_amd64.go) from CPUID
// feature detection.

// microKernelSSE2 is the baseline 4×8 kernel: the accumulator tile lives
// in XMM0–XMM7 for the whole K loop, with two 4-float B loads and four
// broadcast A scalars per step (MULPS+ADDPS; SSE2 is architectural on
// amd64, so it needs no feature check).
//
//go:noescape
func microKernelSSE2(acc, a *float32, rs, ks int, b *float32, ldb int, kc int)

// microKernelAVX2 is the 6×16 AVX2/FMA kernel: the accumulator tile lives
// in YMM0–YMM11, each K step is two 8-float B loads, six VBROADCASTSS of
// A, and twelve VFMADD231PS. Requires AVX2+FMA with OS-saved YMM state.
//
//go:noescape
func microKernelAVX2(acc, a *float32, rs, ks int, b *float32, ldb int, kc int)

// microKernelAVX512 is the 14×32 AVX-512F kernel: the accumulator tile
// lives in ZMM0–ZMM27, each K step is two 16-float B loads, fourteen
// VBROADCASTSS of A, and twenty-eight VFMADD231PS. Uses only AVX-512F
// instructions; requires OS-saved opmask/ZMM state.
//
//go:noescape
func microKernelAVX512(acc, a *float32, rs, ks int, b *float32, ldb int, kc int)

// microKernelAVX2C / microKernelAVX512C are the interior-tile variants:
// same K loop, but the register tile is added directly into C (row stride
// ldc floats) with vector loads/adds/stores — interior tiles skip the
// acc→C pass entirely, which at AVX-512 speeds is worth tens of percent.
// Callers must guarantee a full mr×nr window at c.
//
//go:noescape
func microKernelAVX2C(c *float32, ldc int, a *float32, rs, ks int, b *float32, ldb int, kc int)

//go:noescape
func microKernelAVX512C(c *float32, ldc int, a *float32, rs, ks int, b *float32, ldb int, kc int)

// addVecAVX2 is dst[i] += src[i] over n floats with YMM loads/adds/stores
// (AVX-level instructions only). AddInto dispatches to it when the CPUID
// table says YMM state is usable.
//
//go:noescape
func addVecAVX2(dst, src *float32, n int)
