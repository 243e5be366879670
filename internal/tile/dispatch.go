package tile

import (
	"fmt"
	"os"
	"strings"
)

// The packed GEMM is built from interchangeable register-tile
// micro-kernels. Each variant owns its register-tile shape (mr×nr) and the
// cache-blocking parameters tuned for it; pack.go and parallel.go are
// written against this descriptor, so adding an ISA means adding one asm
// routine and one table entry.
type kernelImpl struct {
	name string
	// mr×nr is the register accumulator tile the micro-kernel keeps live
	// across the whole K panel.
	mr, nr int
	// Cache blocking: the B micro-panel (kc×nr) should be L1-resident, the
	// packed A panel (mc×kc) L2-resident, the packed B panel (kc×nc)
	// L2/L3-resident.
	kc, mc, nc int
	// id selects the micro-kernel routine via callKernel. An enum rather
	// than a func value so the call site stays a direct call behind a
	// switch: the //go:noescape annotations then hold, and operand
	// headers the caller built on its stack stay there — a
	// function-pointer call would force them to the heap.
	id kernID
}

// kernID enumerates the micro-kernel routines; callKernel (per-arch) maps
// an id to its routine, which computes acc[0:mr*nr] = Astrip·Bstrip over
// kc steps — A element (r, kk) at a[r*rs + kk*ks], B row kk at b[kk*ldb],
// so packed strips (rs=1, ks=mr, ldb=nr) and operands used in place
// (rs=a.Stride, ks=1, ldb=b.Stride) run through the same routine. acc is
// row-major with stride nr, overwritten, not accumulated into.
type kernID int8

const (
	kidGo kernID = iota
	kidSSE2
	kidAVX2
	kidAVX512
)

// maxAccTile bounds the edge-tile accumulator in gemmScratch: the largest
// mr*nr over every variant in the table (avx512's 14×32).
const maxAccTile = 14 * 32

// goKernel is the portable pure-Go variant, present in every build: the
// only variant on non-amd64 or under -tags purego, and a forceable
// reference everywhere else.
var goKernel = &kernelImpl{
	name: "go",
	mr:   4, nr: 8,
	kc: 256, mc: 128, nc: 1024,
	id: kidGo,
}

// kernelTable holds the variants usable on this machine, best first.
// buildKernelTable is per-arch (kernels_amd64.go / kernels_purego.go).
var kernelTable = buildKernelTable()

// activeKern is the variant Gemm/GemmPacked currently drive.
// It is read per call without synchronization; SetKernel is for tests,
// benchmarks, and process start-up, not for flipping mid-multiply.
var activeKern = pickKernel()

// pickKernel selects the start-up variant: the SLICING_GEMM_KERNEL
// environment variable when it names an available variant (unknown or
// unavailable names are ignored), otherwise the best available one.
func pickKernel() *kernelImpl {
	if want := os.Getenv("SLICING_GEMM_KERNEL"); want != "" {
		for _, k := range kernelTable {
			if k.name == want {
				return k
			}
		}
		fmt.Fprintf(os.Stderr, "tile: SLICING_GEMM_KERNEL=%q not available (have %s); using %s\n",
			want, strings.Join(KernelVariants(), ","), kernelTable[0].name)
	}
	return kernelTable[0]
}

// KernelName reports the micro-kernel variant Gemm currently dispatches to
// ("avx512", "avx2", "sse2", or "go").
func KernelName() string { return activeKern.name }

// KernelVariants lists every micro-kernel variant usable on this machine,
// best first. Variants the CPU (or OS) cannot run are not listed.
func KernelVariants() []string {
	names := make([]string, len(kernelTable))
	for i, k := range kernelTable {
		names[i] = k.name
	}
	return names
}

// KernelDescription reports the active variant and its blocking
// parameters, e.g. "avx512 (14x32 register tile, kc=192 mc=140 nc=2048)".
func KernelDescription() string {
	k := activeKern
	return fmt.Sprintf("%s (%dx%d register tile, kc=%d mc=%d nc=%d)",
		k.name, k.mr, k.nr, k.kc, k.mc, k.nc)
}

// SetKernel forces a specific micro-kernel variant by name and returns the
// previously active one. It exists for tests, benchmarks, and start-up
// configuration; it must not race with in-flight Gemm calls. The
// SLICING_GEMM_KERNEL environment variable applies the same override at
// process start.
func SetKernel(name string) (prev string, err error) {
	for _, k := range kernelTable {
		if k.name == name {
			prev, activeKern = activeKern.name, k
			return prev, nil
		}
	}
	return activeKern.name, fmt.Errorf("tile: unknown or unavailable kernel %q (have %s)",
		name, strings.Join(KernelVariants(), ","))
}

// AddInto accumulates src into dst element-wise: dst[i] += src[i] for
// every i < len(src); dst must be at least that long. It is the one add
// loop under the GEMM→accumulate chain — the runtime backends' accumulate
// and the kernel's edge-window add both land here — and runs as a vector
// kernel wherever the CPUID table found one (the Go loop otherwise, and
// under -tags purego).
func AddInto(dst, src []float32) {
	if len(src) == 0 {
		return
	}
	addVec(dst[:len(src)], src)
}
