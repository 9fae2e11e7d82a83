//go:build !amd64

package blas

// Non-amd64 builds have no assembly kernels: useAsmKernel stays false and
// every dispatch takes its Go loop. The stubs below exist so the dispatch
// sites compile on every architecture; none of them is ever reached.

const asmKernelName = "none"

// probeAsmKernel: no assembly kernel exists off amd64.
func probeAsmKernel() bool { return false }

func gemmKernelAsm(kc int, a []float64, lda int, b, c []float64, ldc int, alpha float64) {
	panic(errNoAsm)
}

func ddotAsm(x, y []float64) float64         { panic(errNoAsm) }
func dsumAsm(x []float64) float64            { panic(errNoAsm) }
func daxpyAsm(alpha float64, x, y []float64) { panic(errNoAsm) }
func dscalAsm(alpha float64, x []float64)    { panic(errNoAsm) }
func idamaxAsm(x []float64) int              { panic(errNoAsm) }

const errNoAsm = "blas: assembly kernel called without useAsmKernel"
