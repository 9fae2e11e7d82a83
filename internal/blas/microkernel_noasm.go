//go:build !amd64

package blas

// Non-amd64 builds have no assembly kernels: the tile is the Go loops,
// useAsmKernel stays false and every dispatch takes its Go path. The stubs
// below exist so the dispatch sites compile on every architecture; none of
// them is ever reached.

// probeTile: no assembly tile exists off amd64.
func probeTile() tile { return tileGeneric }

func gemmKernel8x12AVX512(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64, ib, jb int) {
	panic(errNoAsm)
}

func gemmKernel8x4AVX2(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64, n int) {
	panic(errNoAsm)
}

func ddotAsm(x, y []float64) float64         { panic(errNoAsm) }
func dsumAsm(x []float64) float64            { panic(errNoAsm) }
func daxpyAsm(alpha float64, x, y []float64) { panic(errNoAsm) }
func dscalAsm(alpha float64, x []float64)    { panic(errNoAsm) }
func idamaxAsm(x []float64) int              { panic(errNoAsm) }
func damaxAsm(x []float64) float64           { panic(errNoAsm) }

func packANoTransAsm(kc int, alpha float64, a *float64, lda int, dst *float64) { panic(errNoAsm) }
func packATransAsm(kc int, alpha float64, a *float64, lda int, dst *float64)   { panic(errNoAsm) }
func packBNoTransAsm(kc int, b *float64, ldb int, dst *float64)                { panic(errNoAsm) }

const errNoAsm = "blas: assembly kernel called off amd64"
