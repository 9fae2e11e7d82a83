//go:build amd64

package blas

// AVX2+FMA kernel selection for amd64. The assembly kernels need AVX2
// (VBROADCASTSD and friends on YMM), FMA3 and OS support for saving YMM
// state; all three are probed once at init via CPUID/XGETBV and the
// dispatch falls back to the Go loops when anything is missing.

const asmKernelName = "amd64-avx2-fma-8x4"

// probeAsmKernel enables the assembly kernel when the host supports it.
func probeAsmKernel() bool { return hasAVX2FMA() }

// hasAVX2FMA reports whether the CPU and OS support the assembly kernel:
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

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// gemmKernel8x4Asm accumulates the 8x4 tile C[i + j*ldc] += alpha * sum_p
// a[p*lda+i]*b[p*4+j] with AVX2 FMA instructions. kc must be >= 1, a must
// hold 8 readable doubles at every depth step and c must address a full
// 8x4 tile (the callers guarantee all three).
//
//go:noescape
func gemmKernel8x4Asm(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64)

// gemmKernelAsm adapts the slice-based dispatch to the pointer-based
// assembly routine.
func gemmKernelAsm(kc int, a []float64, lda int, b, c []float64, ldc int, alpha float64) {
	gemmKernel8x4Asm(kc, &a[0], lda, &b[0], &c[0], ldc, alpha)
}

// Unit-stride level-1 kernels (level1_amd64.s), selected by useAsmKernel
// like the microkernel. Each works on len(x) elements; the callers slice y
// to the same length.

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
