package blas

// Register-blocked inner kernels of the packed Dgemm. The microkernel
// contract (see doc/KERNELS.md): given an MR-strip of packed op(A), an
// NR-strip of packed op(B) and the depth kc, accumulate the full
// gemmMR x gemmNR register tile into C,
//
//	C[i + j*ldc] += sum_p a[p*MR+i] * b[p*NR+j],
//
// reading only contiguous packed memory. alpha is already folded into the
// packed A strip and beta was applied by the driver, so kernels only ever
// accumulate. Fringe tiles never reach a kernel directly: the macrokernel
// routes them through a zeroed MRxNR buffer and masks the padding on
// write-back, so kernels can assume a full tile unconditionally. The
// assembly kernel also serves gemmInPlace: given A's leading dimension in
// place of MR it reads an unpacked NoTrans A strip, and it scales the tile
// by alpha as it adds it to C.

// useAsmKernel selects the architecture-specific assembly kernels: the
// microkernel, its in-place-A entry (gemmInPlace) and the unit-stride
// level-1 kernels behind Ddot, Daxpy, Dscal, Idamax and Dnrm2.
// probeAsmKernel (defined per architecture) checks the CPU once at package
// init; tests force the Go paths through this variable.
var useAsmKernel = probeAsmKernel()

// gemmKernel dispatches one MR x NR tile update to the best available
// implementation.
func gemmKernel(kc int, a, b, c []float64, ldc int) {
	if useAsmKernel {
		gemmKernelAsm(kc, a, gemmMR, b, c, ldc, 1)
		return
	}
	gemmKernelGeneric(kc, a, b, c, ldc)
}

// KernelName identifies the active microkernel implementation, for
// benchmark reports (BENCH_gemm.json) and calibration output.
func KernelName() string {
	if useAsmKernel {
		return asmKernelName
	}
	return "generic-4x4"
}

// gemmKernelGeneric is the portable microkernel: the 8x4 tile is computed
// as two 4x4 halves so that each half's 16 accumulators stay in registers.
// Both halves read the same packed B strip; the second half starts four
// rows into each packed A column.
func gemmKernelGeneric(kc int, a, b, c []float64, ldc int) {
	kernel4x4(kc, a, b, c, ldc)
	kernel4x4(kc, a[4:], b, c[4:], ldc)
}

// kernel4x4 accumulates a 4x4 tile: C[i + j*ldc] += sum_p a[p*MR+i]*b[p*NR+j].
func kernel4x4(kc int, a, b, c []float64, ldc int) {
	var c00, c10, c20, c30 float64
	var c01, c11, c21, c31 float64
	var c02, c12, c22, c32 float64
	var c03, c13, c23, c33 float64
	ia, ib := 0, 0
	for p := 0; p < kc; p++ {
		av := a[ia : ia+4]
		bv := b[ib : ib+4]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
		ia += gemmMR
		ib += gemmNR
	}
	col := c[0:4]
	col[0] += c00
	col[1] += c10
	col[2] += c20
	col[3] += c30
	col = c[ldc : ldc+4]
	col[0] += c01
	col[1] += c11
	col[2] += c21
	col[3] += c31
	col = c[2*ldc : 2*ldc+4]
	col[0] += c02
	col[1] += c12
	col[2] += c22
	col[3] += c32
	col = c[3*ldc : 3*ldc+4]
	col[0] += c03
	col[1] += c13
	col[2] += c23
	col[3] += c33
}

// macroKernel sweeps the packed mc x kc A panel against the packed kc x nc
// B panel, issuing one microkernel call per MR x NR tile of the C macro
// block. Full tiles update C in place; fringe tiles run against a zeroed
// MRxNR buffer whose valid region is then added to C, masking the packing
// padding.
func macroKernel(mc, nc, kc int, ap, bp, c []float64, ldc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		jb := min(gemmNR, nc-jr)
		bs := bp[jr*kc : jr*kc+gemmNR*kc]
		for ir := 0; ir < mc; ir += gemmMR {
			ib := min(gemmMR, mc-ir)
			kernelTile(kc, ap[ir*kc:ir*kc+gemmMR*kc], bs, c[jr*ldc+ir:], ldc, ib, jb)
		}
	}
}

// kernelTile adds the product of the packed strips as and bs (depth kc) to
// the ib x jb tile of C at c: a full tile in place, a fringe tile through
// a zeroed MR x NR buffer whose valid region is then added to C.
func kernelTile(kc int, as, bs, c []float64, ldc, ib, jb int) {
	if ib == gemmMR && jb == gemmNR {
		gemmKernel(kc, as, bs, c, ldc)
		return
	}
	var tmp [gemmMR * gemmNR]float64
	gemmKernel(kc, as, bs, tmp[:], gemmMR)
	addTile(c, ldc, &tmp, ib, jb)
}

// addTile adds the leading ib x jb block of the register tile tmp (leading
// dimension gemmMR) to c.
func addTile(c []float64, ldc int, tmp *[gemmMR * gemmNR]float64, ib, jb int) {
	for j := 0; j < jb; j++ {
		dst := c[j*ldc : j*ldc+ib]
		src := tmp[j*gemmMR : j*gemmMR+ib]
		for i, v := range src {
			dst[i] += v
		}
	}
}
