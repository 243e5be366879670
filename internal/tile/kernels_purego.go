//go:build !amd64 || purego

package tile

// Without amd64 assembly (foreign architectures, or -tags purego) the
// portable Go micro-kernel is the only variant.
func buildKernelTable() []*kernelImpl { return []*kernelImpl{goKernel} }

// callKernel has a single target here; the indirection mirrors the amd64
// dispatch so pack.go is identical across builds.
func callKernel(_ kernID, acc, a *float32, rs, ks int, b *float32, ldb, kc int) {
	microKernelGo(acc, a, rs, ks, b, ldb, kc)
}

// callKernelC: no direct-into-C variants without assembly; every tile
// takes the acc+masked-add path.
func callKernelC(kernID, *float32, int, *float32, int, int, *float32, int, int) bool {
	return false
}

// addVec is AddInto's body; without assembly it is the Go loop.
func addVec(dst, src []float32) { addVecGo(dst, src) }
