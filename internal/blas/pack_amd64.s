// AVX2 pack kernels for full strips of the packed Dgemm (see pack.go and
// doc/KERNELS.md, "Packed layouts"). Each copies one full MR-row strip of
// op(A) or NR-column strip of op(B) into the kernel-shaped layout the
// register tiles read; the A kernels scale by alpha with one VMULPD per
// element, the same IEEE product alpha*v as the Go loops, so the packed
// buffers are bit-identical. Fringe strips stay in Go.
//
// The kernels have no bounds checks and count kc down to zero: the Go call
// sites require kc >= 1 and touch the last source and destination element
// the kernel uses before calling, so a short slice panics in Go.

#include "textflag.h"

// func packANoTransAsm(kc int, alpha float64, a *float64, lda int, dst *float64)
//
// dst[p*8+i] = alpha*a[p*lda+i] for p < kc, i < 8: each depth step is one
// contiguous 8-double run of the source, two YMM loads scaled and stored.
TEXT ·packANoTransAsm(SB), NOSPLIT, $0-40
	MOVQ         kc+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), R8
	SHLQ         $3, R8              // lda in bytes
	MOVQ         dst+32(FP), DI

packan:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     packan
	VZEROUPPER
	RET

// func packATransAsm(kc int, alpha float64, a *float64, lda int, dst *float64)
//
// dst[p*8+i] = alpha*a[i*lda+p] for p < kc, i < 8: the eight source rows
// are read as eight streams, two depth steps per iteration. For rows 0-3,
// 128-bit loads and VINSERTF128 build [r0[p] r0[p+1] r2[p] r2[p+1]] and
// [r1[p] r1[p+1] r3[p] r3[p+1]], and VUNPCKLPD/VUNPCKHPD turn them into
// lanes 0-3 of steps p and p+1; rows 4-7 give lanes 4-7 the same way. An
// odd last step gathers its eight values with VMOVSD/VMOVHPD.
//
// Register plan: SI walks rows 0-3 and R10 rows 4-7, with row offsets
// lda (R8), 2*lda (R8*2) and 3*lda (DX) in bytes; BX counts step pairs.
TEXT ·packATransAsm(SB), NOSPLIT, $0-40
	MOVQ         kc+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), R8
	SHLQ         $3, R8              // lda in bytes
	MOVQ         dst+32(FP), DI
	LEAQ         (R8)(R8*2), DX      // 3*lda
	LEAQ         (SI)(R8*4), R10     // row 4
	MOVQ         CX, BX
	SHRQ         $1, BX
	JZ           packatodd

packat2:
	VMOVUPD     (SI), X1
	VINSERTF128 $1, (SI)(R8*2), Y1, Y1
	VMOVUPD     (SI)(R8*1), X2
	VINSERTF128 $1, (SI)(DX*1), Y2, Y2
	VMOVUPD     (R10), X3
	VINSERTF128 $1, (R10)(R8*2), Y3, Y3
	VMOVUPD     (R10)(R8*1), X4
	VINSERTF128 $1, (R10)(DX*1), Y4, Y4
	VUNPCKLPD   Y2, Y1, Y5           // rows 0-3, step p
	VUNPCKHPD   Y2, Y1, Y6           // rows 0-3, step p+1
	VUNPCKLPD   Y4, Y3, Y7           // rows 4-7, step p
	VUNPCKHPD   Y4, Y3, Y8           // rows 4-7, step p+1
	VMULPD      Y5, Y0, Y5
	VMULPD      Y7, Y0, Y7
	VMULPD      Y6, Y0, Y6
	VMULPD      Y8, Y0, Y8
	VMOVUPD     Y5, (DI)
	VMOVUPD     Y7, 32(DI)
	VMOVUPD     Y6, 64(DI)
	VMOVUPD     Y8, 96(DI)
	ADDQ        $16, SI
	ADDQ        $16, R10
	ADDQ        $128, DI
	DECQ        BX
	JNZ         packat2

packatodd:
	ANDQ        $1, CX
	JZ          packatdone
	VMOVSD      (SI), X1
	VMOVHPD     (SI)(R8*1), X1, X1
	VMOVSD      (SI)(R8*2), X2
	VMOVHPD     (SI)(DX*1), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMOVSD      (R10), X3
	VMOVHPD     (R10)(R8*1), X3, X3
	VMOVSD      (R10)(R8*2), X4
	VMOVHPD     (R10)(DX*1), X4, X4
	VINSERTF128 $1, X4, Y3, Y3
	VMULPD      Y1, Y0, Y1
	VMULPD      Y3, Y0, Y3
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y3, 32(DI)

packatdone:
	VZEROUPPER
	RET

// func packBNoTransAsm(kc int, b *float64, ldb int, dst *float64)
//
// dst[p*12+j] = b[j*ldb+p] for p < kc, j < 12: the twelve source columns
// are read as twelve streams, two depth steps per iteration, with
// packATransAsm's 4x2 transposes for each of the three 4-column groups, so
// each 96-byte packed row is written by three adjacent stores.
//
// Register plan: SI, R10 and R11 walk columns 0, 4 and 8, with column
// offsets ldb (R8), 2*ldb (R8*2) and 3*ldb (DX) in bytes; BX counts step
// pairs.
TEXT ·packBNoTransAsm(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	SHLQ $3, R8                      // ldb in bytes
	MOVQ dst+24(FP), DI
	LEAQ (R8)(R8*2), DX              // 3*ldb
	LEAQ (SI)(R8*4), R10             // column 4
	LEAQ (R10)(R8*4), R11            // column 8
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   packbnodd

packbn2:
	VMOVUPD     (SI), X0
	VINSERTF128 $1, (SI)(R8*2), Y0, Y0
	VMOVUPD     (SI)(R8*1), X1
	VINSERTF128 $1, (SI)(DX*1), Y1, Y1
	VMOVUPD     (R10), X2
	VINSERTF128 $1, (R10)(R8*2), Y2, Y2
	VMOVUPD     (R10)(R8*1), X3
	VINSERTF128 $1, (R10)(DX*1), Y3, Y3
	VMOVUPD     (R11), X4
	VINSERTF128 $1, (R11)(R8*2), Y4, Y4
	VMOVUPD     (R11)(R8*1), X5
	VINSERTF128 $1, (R11)(DX*1), Y5, Y5
	VUNPCKLPD   Y1, Y0, Y6           // columns 0-3, step p
	VUNPCKLPD   Y3, Y2, Y7           // columns 4-7, step p
	VUNPCKLPD   Y5, Y4, Y8           // columns 8-11, step p
	VUNPCKHPD   Y1, Y0, Y9           // columns 0-3, step p+1
	VUNPCKHPD   Y3, Y2, Y10          // columns 4-7, step p+1
	VUNPCKHPD   Y5, Y4, Y11          // columns 8-11, step p+1
	VMOVUPD     Y6, (DI)
	VMOVUPD     Y7, 32(DI)
	VMOVUPD     Y8, 64(DI)
	VMOVUPD     Y9, 96(DI)
	VMOVUPD     Y10, 128(DI)
	VMOVUPD     Y11, 160(DI)
	ADDQ        $16, SI
	ADDQ        $16, R10
	ADDQ        $16, R11
	ADDQ        $192, DI
	DECQ        BX
	JNZ         packbn2

packbnodd:
	ANDQ        $1, CX
	JZ          packbndone
	VMOVSD      (SI), X0
	VMOVHPD     (SI)(R8*1), X0, X0
	VMOVSD      (SI)(R8*2), X1
	VMOVHPD     (SI)(DX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVSD      (R10), X2
	VMOVHPD     (R10)(R8*1), X2, X2
	VMOVSD      (R10)(R8*2), X3
	VMOVHPD     (R10)(DX*1), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVSD      (R11), X4
	VMOVHPD     (R11)(R8*1), X4, X4
	VMOVSD      (R11)(R8*2), X5
	VMOVHPD     (R11)(DX*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y4, 64(DI)

packbndone:
	VZEROUPPER
	RET
