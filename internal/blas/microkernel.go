package blas

import "math"

// Register-blocked inner kernels of the packed Dgemm. The tile contract
// (see doc/KERNELS.md): given an MR-row strip of A whose depth steps lie
// lda apart, an NR-strip of packed op(B) and the depth kc, add alpha times
// the gemmMR x gemmNR product to C,
//
//	C[i + j*ldc] += alpha * sum_p a[p*lda+i] * b[p*NR+j].
//
// The packed path passes a packed A strip (lda = MR) with alpha already
// folded into it and alpha = 1; gemmInPlace passes an unpacked NoTrans A
// strip at its own leading dimension and alpha. beta was applied by the
// driver, so tiles only ever accumulate. Every kernel reads full packed
// strips; kernelTile decides how a fringe tile reaches C.

// tile names a register tile implementation. Every implementation computes
// the same 8x12 tile, accumulating each element of C from zero in depth
// order and adding alpha times the sum to C, so the two assembly tiles,
// which do both with FMAs, give bit-identical results.
type tile uint8

const (
	tileGeneric tile = iota // Go loops over the tile's 4-column groups
	tileAVX2                // the AVX2+FMA 8x4 kernel over the 4-column groups
	tileAVX512              // the AVX-512F 8x12 kernel, 12 ZMM accumulators
)

// gemmTile is the register tile every BLAS3 routine runs on: the best one
// probeTile (defined per architecture) finds at package init. Tests force
// the others through it.
var gemmTile = probeTile()

// useAsmKernel selects the AVX2 unit-stride level-1 kernels behind Ddot,
// Daxpy, Dscal, Idamax and Dnrm2. Both assembly tiles imply them.
var useAsmKernel = gemmTile != tileGeneric

// KernelName identifies the active register tile, for benchmark reports
// (BENCH_gemm.json) and calibration output.
func KernelName() string {
	return [...]string{
		tileGeneric: "generic-8x12",
		tileAVX2:    "amd64-avx2-fma-8x12",
		tileAVX512:  "amd64-avx512-8x12",
	}[gemmTile]
}

// macroKernel sweeps the packed mc x kc A panel against the packed kc x nc
// B panel, one register tile of the C macro block at a time.
func macroKernel(mc, nc, kc int, ap, bp, c []float64, ldc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		jb := min(gemmNR, nc-jr)
		bs := bp[jr*kc : jr*kc+gemmNR*kc]
		for ir := 0; ir < mc; ir += gemmMR {
			ib := min(gemmMR, mc-ir)
			kernelTile(kc, ap[ir*kc:ir*kc+gemmMR*kc], gemmMR, bs, c[jr*ldc+ir:], ldc, 1, ib, jb)
		}
	}
}

// kernelTile adds alpha times the product of the A strip as (depth steps
// lda apart) and the packed B strip bs (depth kc) to the ib x jb tile of C
// at c. The AVX-512 tile computes all twelve columns and writes back only
// the ib x jb region, with masked loads and stores. The AVX2 and Go tiles
// run 4-column groups and skip the groups past jb: every complete group
// is written in place, and a group with missing rows or columns goes
// through a zeroed buffer whose valid region addTile then adds to C.
// Either way an assembly tile rounds each element of C once, to
// C + alpha*sum.
func kernelTile(kc int, as []float64, lda int, bs, c []float64, ldc int, alpha float64, ib, jb int) {
	if gemmTile == tileAVX512 {
		gemmKernel8x12AVX512(kc, &as[0], lda, &bs[0], &c[0], ldc, alpha, ib, jb)
		return
	}
	jd := 0
	if ib == gemmMR {
		jd = jb - jb%4
	}
	if jd > 0 {
		groupKernel(kc, as, lda, bs, c, ldc, alpha, jd)
	}
	for j := jd; j < jb; j += 4 {
		var tmp [gemmMR * 4]float64
		groupKernel(kc, as, lda, bs[j:], tmp[:], gemmMR, 1, 4)
		addTile(c[j*ldc:], ldc, tmp[:], ib, min(4, jb-j), alpha)
	}
}

// groupKernel adds alpha times the first n columns of the tile product (n
// a positive multiple of 4) to the tile of C at c, one 4-column group at a
// time: the AVX2 kernel, or two 4x4 halves of Go loops per group.
func groupKernel(kc int, a []float64, lda int, b, c []float64, ldc int, alpha float64, n int) {
	if gemmTile == tileAVX2 {
		gemmKernel8x4AVX2(kc, &a[0], lda, &b[0], &c[0], ldc, alpha, n)
		return
	}
	for j := 0; j < n; j += 4 {
		kernel4x4(kc, a, lda, b[j:], c[j*ldc:], ldc, alpha)
		kernel4x4(kc, a[4:], lda, b[j:], c[j*ldc+4:], ldc, alpha)
	}
}

// kernel4x4 is the portable kernel, one 4x4 half of a 4-column group with
// its 16 accumulators in registers:
// C[i + j*ldc] += alpha * sum_p a[p*lda+i] * b[p*NR+j].
func kernel4x4(kc int, a []float64, lda int, b, c []float64, ldc int, alpha float64) {
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
		ia += lda
		ib += gemmNR
	}
	col := c[0:4]
	col[0] += alpha * c00
	col[1] += alpha * c10
	col[2] += alpha * c20
	col[3] += alpha * c30
	col = c[ldc : ldc+4]
	col[0] += alpha * c01
	col[1] += alpha * c11
	col[2] += alpha * c21
	col[3] += alpha * c31
	col = c[2*ldc : 2*ldc+4]
	col[0] += alpha * c02
	col[1] += alpha * c12
	col[2] += alpha * c22
	col[3] += alpha * c32
	col = c[3*ldc : 3*ldc+4]
	col[0] += alpha * c03
	col[1] += alpha * c13
	col[2] += alpha * c23
	col[3] += alpha * c33
}

// addTile adds alpha times the leading ib x jb block of the tile buffer
// tmp (leading dimension gemmMR) to c, with one rounding per element as an
// assembly tile's write-back has.
func addTile(c []float64, ldc int, tmp []float64, ib, jb int, alpha float64) {
	for j := 0; j < jb; j++ {
		dst := c[j*ldc : j*ldc+ib]
		src := tmp[j*gemmMR : j*gemmMR+ib]
		if alpha == 1 {
			for i, v := range src {
				dst[i] += v
			}
			continue
		}
		for i, v := range src {
			dst[i] = math.FMA(alpha, v, dst[i])
		}
	}
}
