// Register tiles of the packed Dgemm and the CPU feature probes. See
// doc/KERNELS.md for the packed strip layouts the tiles consume.

#include "textflag.h"

// func gemmKernel8x12AVX512(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64, ib, jb int)
//
// Adds alpha * sum_p a[p*lda+i] * b[p*12+j] to C[i + j*ldc] for the rows
// i < ib and columns j < jb of the 8x12 register tile. a holds 8
// contiguous doubles per depth step, lda (in elements) apart: a packed
// MR-strip has lda = 8, and a NoTrans A read in place has its own leading
// dimension. b is a packed NR-strip (12 doubles per depth step,
// contiguous), c column-major with leading dimension ldc (in elements).
// alpha scales the accumulated tile as it is added to C with one FMA per
// element; with alpha = 1 that is exactly the rounded sum C + tile. The
// whole tile is computed, but only the ib x jb region of C is read or
// written: masked loads and stores cover the rows, and the write-back
// stops after jb columns.
//
// Register plan: Z0..Z11 accumulate the twelve 8-row columns of the tile.
// Each depth step loads the A column into Z12 (Z13 in the unrolled half)
// and issues twelve FMAs, each broadcasting its B value from memory. The
// depth loop is unrolled by two. K1 masks the ib rows, R9 counts the
// columns left to write.
TEXT ·gemmKernel8x12AVX512(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $3, R8                // lda in bytes
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), DX
	SHLQ $3, DX                // ldc in bytes

	// A VEX-encoded write clears the register up to bit 511, so these
	// zero Z0..Z11.
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9
	VXORPD X10, X10, X10
	VXORPD X11, X11, X11

	MOVQ CX, AX
	ANDQ $1, AX                // odd leftover step?
	SHRQ $1, CX                // the depth loop runs in pairs
	JZ   tail512

loop512:
	VMOVUPD (SI), Z12
	ADDQ    R8, SI
	VFMADD231PD.BCST (BX), Z12, Z0
	VFMADD231PD.BCST 8(BX), Z12, Z1
	VFMADD231PD.BCST 16(BX), Z12, Z2
	VFMADD231PD.BCST 24(BX), Z12, Z3
	VFMADD231PD.BCST 32(BX), Z12, Z4
	VFMADD231PD.BCST 40(BX), Z12, Z5
	VFMADD231PD.BCST 48(BX), Z12, Z6
	VFMADD231PD.BCST 56(BX), Z12, Z7
	VFMADD231PD.BCST 64(BX), Z12, Z8
	VFMADD231PD.BCST 72(BX), Z12, Z9
	VFMADD231PD.BCST 80(BX), Z12, Z10
	VFMADD231PD.BCST 88(BX), Z12, Z11

	VMOVUPD (SI), Z13
	ADDQ    R8, SI
	VFMADD231PD.BCST 96(BX), Z13, Z0
	VFMADD231PD.BCST 104(BX), Z13, Z1
	VFMADD231PD.BCST 112(BX), Z13, Z2
	VFMADD231PD.BCST 120(BX), Z13, Z3
	VFMADD231PD.BCST 128(BX), Z13, Z4
	VFMADD231PD.BCST 136(BX), Z13, Z5
	VFMADD231PD.BCST 144(BX), Z13, Z6
	VFMADD231PD.BCST 152(BX), Z13, Z7
	VFMADD231PD.BCST 160(BX), Z13, Z8
	VFMADD231PD.BCST 168(BX), Z13, Z9
	VFMADD231PD.BCST 176(BX), Z13, Z10
	VFMADD231PD.BCST 184(BX), Z13, Z11

	ADDQ $192, BX
	DECQ CX
	JNZ  loop512

tail512:
	TESTQ AX, AX
	JZ    write512
	VMOVUPD (SI), Z12
	VFMADD231PD.BCST (BX), Z12, Z0
	VFMADD231PD.BCST 8(BX), Z12, Z1
	VFMADD231PD.BCST 16(BX), Z12, Z2
	VFMADD231PD.BCST 24(BX), Z12, Z3
	VFMADD231PD.BCST 32(BX), Z12, Z4
	VFMADD231PD.BCST 40(BX), Z12, Z5
	VFMADD231PD.BCST 48(BX), Z12, Z6
	VFMADD231PD.BCST 56(BX), Z12, Z7
	VFMADD231PD.BCST 64(BX), Z12, Z8
	VFMADD231PD.BCST 72(BX), Z12, Z9
	VFMADD231PD.BCST 80(BX), Z12, Z10
	VFMADD231PD.BCST 88(BX), Z12, Z11

write512:
	// C += alpha*accumulators on the valid region, one column (one ZMM)
	// at a time.
	MOVQ         ib+56(FP), CX
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K1         // the low ib rows
	MOVQ         jb+64(FP), R9
	VBROADCASTSD alpha+48(FP), Z12
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z0, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z1, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z2, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z3, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z4, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z5, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z6, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z7, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z8, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z9, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z10, Z12, Z13
	VMOVUPD      Z13, K1, (DI)
	DECQ         R9
	JZ           done512
	ADDQ         DX, DI
	VMOVUPD.Z    (DI), K1, Z13
	VFMADD231PD  Z11, Z12, Z13
	VMOVUPD      Z13, K1, (DI)

done512:
	VZEROUPPER
	RET

// func gemmKernel8x4AVX2(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64, n int)
//
// gemmKernel8x12AVX512 on AVX2 for the first n columns of the tile (n a
// multiple of 4), one 4-column group at a time: adds alpha * sum_p
// a[p*lda+i] * b[p*12+j] to C[i + j*ldc] for i < 8, j < n. Each element is
// accumulated and written back exactly as the AVX-512 tile does it, so the
// two give bit-identical results.
//
// Register plan: Y0..Y7 are the eight 4-wide accumulators of a group (two
// YMM per C column), Y8/Y9 (and Y14/Y15 in the unrolled half) hold the
// current A column pair, Y10..Y13 the broadcast B values. The k-loop is
// unrolled by two so each accumulator's FMA chain has a full latency
// window between updates. R9 counts the groups left and R10 holds the
// group's first B column.
TEXT ·gemmKernel8x4AVX2(SB), NOSPLIT, $0-64
	MOVQ lda+16(FP), R8
	SHLQ $3, R8                // lda in bytes
	MOVQ b+24(FP), R10
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), DX
	SHLQ $3, DX                // ldc in bytes
	MOVQ n+56(FP), R9
	SHRQ $2, R9                // groups

group:
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ R10, BX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	ANDQ $1, AX                // odd leftover iteration?
	SHRQ $1, CX                // k-loop runs in pairs
	JZ   tail

loop2:
	// Rank-1 update p.
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	ADDQ         R8, SI
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VBROADCASTSD 16(BX), Y12
	VBROADCASTSD 24(BX), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

	// Rank-1 update p+1.
	VMOVUPD      (SI), Y14
	VMOVUPD      32(SI), Y15
	ADDQ         R8, SI
	VBROADCASTSD 96(BX), Y10
	VBROADCASTSD 104(BX), Y11
	VBROADCASTSD 112(BX), Y12
	VBROADCASTSD 120(BX), Y13
	VFMADD231PD  Y14, Y10, Y0
	VFMADD231PD  Y15, Y10, Y1
	VFMADD231PD  Y14, Y11, Y2
	VFMADD231PD  Y15, Y11, Y3
	VFMADD231PD  Y14, Y12, Y4
	VFMADD231PD  Y15, Y12, Y5
	VFMADD231PD  Y14, Y13, Y6
	VFMADD231PD  Y15, Y13, Y7

	ADDQ $192, BX
	DECQ CX
	JNZ  loop2

tail:
	TESTQ AX, AX
	JZ    write
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VBROADCASTSD 16(BX), Y12
	VBROADCASTSD 24(BX), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

write:
	// C += alpha*accumulators, one column (two YMM) at a time.
	VBROADCASTSD alpha+48(FP), Y8
	VMOVUPD      (DI), Y9
	VMOVUPD      32(DI), Y10
	VFMADD231PD  Y0, Y8, Y9
	VFMADD231PD  Y1, Y8, Y10
	VMOVUPD      Y9, (DI)
	VMOVUPD      Y10, 32(DI)
	ADDQ         DX, DI
	VMOVUPD      (DI), Y9
	VMOVUPD      32(DI), Y10
	VFMADD231PD  Y2, Y8, Y9
	VFMADD231PD  Y3, Y8, Y10
	VMOVUPD      Y9, (DI)
	VMOVUPD      Y10, 32(DI)
	ADDQ         DX, DI
	VMOVUPD      (DI), Y9
	VMOVUPD      32(DI), Y10
	VFMADD231PD  Y4, Y8, Y9
	VFMADD231PD  Y5, Y8, Y10
	VMOVUPD      Y9, (DI)
	VMOVUPD      Y10, 32(DI)
	ADDQ         DX, DI
	VMOVUPD      (DI), Y9
	VMOVUPD      32(DI), Y10
	VFMADD231PD  Y6, Y8, Y9
	VFMADD231PD  Y7, Y8, Y10
	VMOVUPD      Y9, (DI)
	VMOVUPD      Y10, 32(DI)
	ADDQ         DX, DI        // the next group's first C column
	ADDQ         $32, R10      // and its first B column
	DECQ         R9
	JNZ          group
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
