// AVX2+FMA 8x4 microkernel and CPU feature probes for the packed Dgemm.
// See doc/KERNELS.md for the packed strip layout the kernel consumes.

#include "textflag.h"

// func gemmKernel8x4Asm(kc int, a *float64, lda int, b, c *float64, ldc int, alpha float64)
//
// Accumulates C[i + j*ldc] += alpha * sum_p a[p*lda+i] * b[p*4+j] for the
// full 8x4 register tile. a holds 8 contiguous doubles per depth step,
// lda (in elements) apart: a packed MR-strip has lda = 8, and a NoTrans A
// read in place has its own leading dimension. b is a packed NR-strip (4
// doubles per depth step, contiguous), c column-major with leading
// dimension ldc (in elements). alpha scales the accumulated tile as it is
// added to C with one FMA per element; with alpha = 1 that is exactly the
// rounded sum C + tile.
//
// Register plan: Y0..Y7 are the eight 4-wide accumulators (two YMM per C
// column), Y8/Y9 (and Y14/Y15 in the unrolled half) hold the current A
// column pair, Y10..Y13 the broadcast B values. The k-loop is unrolled by
// two so each accumulator's FMA chain has a full latency window between
// updates.
TEXT ·gemmKernel8x4Asm(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $3, R8                // lda in bytes
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), DX
	SHLQ $3, DX                // ldc in bytes

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
	VBROADCASTSD 32(BX), Y10
	VBROADCASTSD 40(BX), Y11
	VBROADCASTSD 48(BX), Y12
	VBROADCASTSD 56(BX), Y13
	VFMADD231PD  Y14, Y10, Y0
	VFMADD231PD  Y15, Y10, Y1
	VFMADD231PD  Y14, Y11, Y2
	VFMADD231PD  Y15, Y11, Y3
	VFMADD231PD  Y14, Y12, Y4
	VFMADD231PD  Y15, Y12, Y5
	VFMADD231PD  Y14, Y13, Y6
	VFMADD231PD  Y15, Y13, Y7

	ADDQ $64, BX
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
