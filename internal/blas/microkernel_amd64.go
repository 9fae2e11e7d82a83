//go:build amd64

package blas

// Register tile selection for amd64. Both assembly tiles need AVX2 and
// FMA3 (the level-1 kernels they imply are AVX2) and OS support for saving
// YMM state; the AVX-512 tile also needs AVX512F and OS support for the
// opmask and ZMM state. probeTile checks all of it once at init via
// CPUID/XGETBV, and the dispatch falls back to the Go loops when anything
// is missing.

// probeTile returns the best register tile this host supports.
func probeTile() tile {
	switch {
	case !hasAVX2FMA():
		return tileGeneric
	case !hasAVX512F():
		return tileAVX2
	}
	return tileAVX512
}

// hasAVX2FMA reports whether the CPU and OS support the AVX2 kernels:
// CPUID.1:ECX must advertise FMA, OSXSAVE and AVX, XCR0 must have the XMM
// and YMM state bits enabled by the OS, and CPUID.7.0:EBX must advertise
// AVX2.
func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// hasAVX512F reports whether the CPU advertises AVX512F (CPUID.7.0:EBX bit
// 16) and the OS saves the opmask, upper ZMM0-15 and ZMM16-31 state (XCR0
// bits 5-7). Callers have checked hasAVX2FMA, which covers the rest.
func hasAVX512F() bool {
	xcr0, _ := xgetbv0()
	if xcr0&0xe0 != 0xe0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// gemmKernel8x12AVX512 adds alpha times the 8x12 tile product
// sum_p a[p*lda+i]*b[p*12+j] to C[i + j*ldc] for i < ib and j < jb, with
// AVX-512F FMAs; the rest of C is neither read nor written. kc must be
// >= 1, a must hold 8 readable doubles at every depth step, b a full
// packed strip, and 1 <= ib <= 8, 1 <= jb <= 12 (the callers guarantee
// all of it).
//
//go:noescape
func gemmKernel8x12AVX512(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64, ib, jb int)

// gemmKernel8x4AVX2 is gemmKernel8x12AVX512 for the first n columns of the
// tile (n a multiple of 4, at least 4), with AVX2 FMAs on one 4-column
// group at a time.
//
//go:noescape
func gemmKernel8x4AVX2(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64, n int)

// Unit-stride level-1 kernels (level1_amd64.s), selected by useAsmKernel.
// Each works on len(x) elements; the callers slice y to the same length.

//go:noescape
func ddotAsm(x, y []float64) float64

//go:noescape
func dsumAsm(x []float64) float64

//go:noescape
func daxpyAsm(alpha float64, x, y []float64)

//go:noescape
func dscalAsm(alpha float64, x []float64)

//go:noescape
func idamaxAsm(x []float64) int

//go:noescape
func damaxAsm(x []float64) float64

// Full-strip pack kernels (pack_amd64.s), selected by useAsmKernel. None
// checks bounds, and each needs kc >= 1: the callers in pack.go check both.

//go:noescape
func packANoTransAsm(kc int, alpha float64, a *float64, lda int, dst *float64)

//go:noescape
func packATransAsm(kc int, alpha float64, a *float64, lda int, dst *float64)

//go:noescape
func packBNoTransAsm(kc int, b *float64, ldb int, dst *float64)
