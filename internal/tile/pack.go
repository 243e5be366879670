package tile

import "sync"

// Packed register-blocked GEMM (COSMA/BLIS-style, §4.2's "keep the local
// GEMM saturated" requirement). The micro-kernel holds an mr×nr accumulator
// tile in registers across the whole K panel, touching each C element once
// per panel instead of once per K step, and reads its operands as strips:
// mr rows of A, nr columns of B, kc deep. A strip is either packed —
// copied once into contiguous k-major scratch so the kernel streams it
// with unit stride — or used in place through the operand's own strides;
// the kernels take both layouts (microkernel_amd64.go). Packing is a
// scalar transposing copy that only pays when the packed strip is reused,
// so panelA/panelB pack an operand only past inPlaceMaxReuse uses. The
// register-tile shape (mr×nr), the micro-kernel, and the cache-blocking
// parameters (kc/mc/nc) all come from the dispatched variant
// (dispatch.go): 14×32 AVX-512, 6×16 AVX2/FMA, 4×8 SSE2, or the portable
// Go kernel.

// gemmScratch is one worker's packing buffers. Pooled so steady-state
// Gemm calls perform no allocation (the paper's single up-front allocation
// discipline, §4.2). Each buffer is sized to the panel actually packed —
// every strip of a packed panel, or the one ragged strip of an in-place
// one — and grows to the largest such panel this worker has met, not to
// the variant's maximum blocking.
type gemmScratch struct {
	a   []float32           // packed A strips: ⌈mc/mr⌉·mr × kc, or mr × kc
	b   []float32           // packed B strips: kc × ⌈nc/nr⌉·nr, or kc × nr
	acc [maxAccTile]float32 // edge tiles' accumulator, overwritten by every kernel call
}

var gemmScratchPool = sync.Pool{New: func() any { return new(gemmScratch) }}

// grow returns buf resized to n floats, reallocating only when capacity is
// insufficient (first use of a larger panel).
func grow(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
}

// inPlaceMaxReuse is the pack-vs-in-place rule: a packed A strip is reused
// once per B strip of the panel (⌈nc/nr⌉ times), a packed B strip once per
// A strip (⌈m/mr⌉ times); an operand whose strips are used at most this
// many times is multiplied in place — full strips through its own strides,
// only a ragged last strip through the zero-padded pack. A pure function
// of the panel shape.
//
// Calibrated on 2 CPUs, best of 21 interleaved rounds, GFLOP/s of Gemm at
// thresholds 0 (always pack) / 4 / 8 / 12 / ∞ (never pack), dense operands
// and (in brackets) 1024-float-stride views:
//
//	avx512  32³   34/87/87/88/85      [31/80/73/69/73]
//	        64³   51/90/110/100/99    [55/86/110/107/109]
//	        128³  72/93/95/102/102    [82/106/110/114/114]
//	        256³  105/107/121/124/122 [88/90/85/84/79]
//	        512³  114/113/103/103/112 [120/116/111/115/109]
//	avx2    32³   33/51/70/69/69      [29/45/56/58/56]
//	        64³   50/69/70/87/86      [38/54/54/68/68]
//	        128³  67/68/80/79/84      [62/67/74/75/73]
//	        256³  71/76/78/80/85      [65/68/64/65/60]
//	        512³  83/95/92/92/72      [80/77/95/78/54]
//
// At 512³ the first four columns are one code path (16+ B strips, 37+ A
// strips: everything packs), so their spread is the noise floor, about
// ±10 %. Within it 12 is never behind 4 or 8, it is clearly ahead of 8 on
// avx2 at 64³, and it keeps what packing is for: large panels stay packed,
// which is what holds up on power-of-two strides, where the rows of an
// in-place panel alias in L1 (∞ loses up to a third at 512³). A variable
// only so the layout tests can force either side; nothing else writes it.
var inPlaceMaxReuse = 12

// panel locates the strips of one operand panel for the micro-kernel.
// Strip s < full starts at data[s*step] with element strides (rs, ks) —
// A element (r, kk) at [r*rs + kk*ks], B row kk at [kk*ks]. The ragged last
// strip, when there is one, is edge: a zero-padded copy of full strip
// width with strides (ers, eks), so the kernel never branches on, or reads
// past, the operand's edge.
type panel struct {
	data     []float32
	step     int
	rs, ks   int
	full     int
	edge     []float32
	ers, eks int
}

// strip returns strip s's first element and strides.
func (p *panel) strip(s int) (ptr *float32, rs, ks int) {
	if s < p.full {
		return &p.data[s*p.step], p.rs, p.ks
	}
	return &p.edge[0], p.ers, p.eks
}

// panelA prepares A[ic:ic+mc, pc:pc+kc] for the micro-kernel: full strips
// in place when they are used at most inPlaceMaxReuse times (reuse = B
// strips in the panel), packed k-major into s.a otherwise. A ragged last
// strip is copied row by row behind them (the strides let the kernel read
// it untransposed) and padded with zero rows.
func (s *gemmScratch) panelA(a *Matrix, ic, pc, mc, kc, reuse, mr int) panel {
	full, rest := mc/mr, mc%mr
	packed := 0 // strips packed ahead of the edge strip
	if reuse > inPlaceMaxReuse {
		packed = full
	}
	s.a = grow(s.a, (packed+min(rest, 1))*mr*kc)
	p := panel{full: full, edge: s.a[packed*mr*kc:], ers: kc, eks: 1}
	if packed > 0 {
		packA(s.a, a, ic, pc, packed, kc, mr)
		p.data, p.step, p.rs, p.ks = s.a, kc*mr, 1, mr
	} else {
		p.data, p.step, p.rs, p.ks = a.Data[ic*a.Stride+pc:], mr*a.Stride, a.Stride, 1
	}
	for r := 0; r < rest; r++ {
		at := (ic+full*mr+r)*a.Stride + pc
		copy(p.edge[r*kc:(r+1)*kc], a.Data[at:at+kc])
	}
	clear(p.edge[rest*kc:])
	return p
}

// panelB prepares B[pc:pc+kc, jc:jc+nc] for the micro-kernel: in place
// when its strips are used at most inPlaceMaxReuse times (reuse = A strips
// multiplied against the panel), packed into s.b otherwise.
func (s *gemmScratch) panelB(b *Matrix, pc, jc, kc, nc, reuse, nr int) panel {
	full := nc / nr
	if reuse > inPlaceMaxReuse {
		strips := (nc + nr - 1) / nr
		s.b = grow(s.b, strips*nr*kc)
		packBStrips(s.b, b, pc, jc, kc, nc, nr, strips)
		return panel{data: s.b, step: kc * nr, ks: nr, full: full, edge: s.b[full*kc*nr:], eks: nr}
	}
	p := panel{data: b.Data[pc*b.Stride+jc:], step: nr, ks: b.Stride, full: full, eks: nr}
	if rest := nc - full*nr; rest > 0 {
		s.b = grow(s.b, nr*kc)
		packBStrips(s.b, b, pc, jc+full*nr, kc, rest, nr, 1)
		p.edge = s.b
	}
	return p
}

// GemmPacked computes C += A*B with the register-blocked kernel,
// regardless of problem size. Gemm dispatches here for all but tiny
// products; the export exists so tests and benchmarks can drive the
// kernel path directly.
func GemmPacked(c, a, b *Matrix) {
	checkGemmShapes(c, a, b)
	gemmPacked(c, a, b)
}

func gemmPacked(c, a, b *Matrix) {
	kn := activeKern
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	s := gemmScratchPool.Get().(*gemmScratch)
	defer gemmScratchPool.Put(s)
	aStrips := (m + kn.mr - 1) / kn.mr
	for jc := 0; jc < n; jc += kn.nc {
		nc := min(kn.nc, n-jc)
		bStrips := (nc + kn.nr - 1) / kn.nr
		for pc := 0; pc < k; pc += kn.kc {
			kc := min(kn.kc, k-pc)
			bp := s.panelB(b, pc, jc, kc, nc, aStrips, kn.nr)
			for ic := 0; ic < m; ic += kn.mc {
				mc := min(kn.mc, m-ic)
				ap := s.panelA(a, ic, pc, mc, kc, bStrips, kn.mr)
				gemmPanels(c, &ap, &bp, &s.acc, ic, jc, mc, nc, kc, kn)
			}
		}
	}
}

// packA copies `strips` whole strips of A starting at (ic, pc) into ap,
// each mr rows stored k-major (ap[strip*kc*mr + kk*mr + r]).
func packA(ap []float32, a *Matrix, ic, pc, strips, kc, mr int) {
	for s := 0; s < strips; s++ {
		base := s * kc * mr
		for r := 0; r < mr; r++ {
			i := ic + s*mr + r
			arow := a.Data[i*a.Stride+pc : i*a.Stride+pc+kc]
			for kk, v := range arow {
				ap[base+kk*mr+r] = v
			}
		}
	}
}

// packBStrips copies strips [0, strips) of B[pc:pc+kc, jc:jc+nc] into bp,
// each strip nr columns stored k-major (bp[strip*kc*nr + kk*nr + j]),
// columns past nc zero-padded.
func packBStrips(bp []float32, b *Matrix, pc, jc, kc, nc, nr, strips int) {
	for s := 0; s < strips; s++ {
		base := s * kc * nr
		j0 := jc + s*nr
		w := min(nr, jc+nc-j0)
		for kk := 0; kk < kc; kk++ {
			brow := b.Data[(pc+kk)*b.Stride+j0 : (pc+kk)*b.Stride+j0+w]
			dst := bp[base+kk*nr : base+kk*nr+nr]
			copy(dst, brow)
			clear(dst[w:])
		}
	}
}

// gemmPanels multiplies the mc×kc A panel by the kc×nc B panel into
// C[ic:ic+mc, jc:jc+nc]. The loop over A strips is innermost so each B
// strip (kc×nr) stays L1-resident while every strip of A streams over it.
func gemmPanels(c *Matrix, ap, bp *panel, acc *[maxAccTile]float32, ic, jc, mc, nc, kc int, kn *kernelImpl) {
	if kc == 0 {
		return
	}
	mr, nr := kn.mr, kn.nr
	for jr := 0; jr < nc; jr += nr {
		b, _, ldb := bp.strip(jr / nr)
		cols := min(nr, nc-jr)
		for ir := 0; ir < mc; ir += mr {
			a, rs, ks := ap.strip(ir / mr)
			rows := min(mr, mc-ir)
			microTile(c, acc, a, rs, ks, b, ldb, kc, ic+ir, jc+jr, rows, cols, kn)
		}
	}
}

// microTile computes a full mr×nr accumulator tile over kc steps from one
// A strip and one B strip (zero-padded packs at the ragged edges) and adds
// the valid rows×cols window into C at (i0, j0). Interior tiles (full
// mr×nr window) go through the direct-into-C kernel variant when the ISA
// has one; edge tiles take the accumulator path and mask the valid window
// in.
func microTile(c *Matrix, acc *[maxAccTile]float32, a *float32, rs, ks int, b *float32, ldb, kc, i0, j0, rows, cols int, kn *kernelImpl) {
	if rows == kn.mr && cols == kn.nr &&
		callKernelC(kn.id, &c.Data[i0*c.Stride+j0], c.Stride, a, rs, ks, b, ldb, kc) {
		return
	}
	callKernel(kn.id, &acc[0], a, rs, ks, b, ldb, kc)
	nr := kn.nr
	for r := 0; r < rows; r++ {
		crow := c.Data[(i0+r)*c.Stride+j0 : (i0+r)*c.Stride+j0+cols]
		addVec(crow, acc[r*nr:r*nr+cols])
	}
}
