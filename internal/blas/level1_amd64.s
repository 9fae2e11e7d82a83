// AVX2+FMA level-1 kernels for the unit-stride paths of Ddot, Dsum,
// Daxpy, Dscal, Idamax, Damax and Dnrm2 (see doc/KERNELS.md). Every kernel
// walks its slices from index 0 in fixed-size chunks, with unaligned loads
// and no alignment peeling, so a result depends only on the length and the
// values, never on where the slice happens to sit in memory.

#include "textflag.h"

// func ddotAsm(x, y []float64) float64
//
// Returns sum_i x[i]*y[i] over len(x) elements (y must be at least as
// long). Four YMM accumulators take 16 elements per iteration; a 4-wide
// loop and a scalar loop finish the tail into the reduced sum.
TEXT ·ddotAsm(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   dot4

dot16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        BX
	JNZ         dot16

dot4:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   dotreduce

dot4loop:
	VMOVUPD     (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        BX
	JNZ         dot4loop

dotreduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	ANDQ         $3, CX
	JZ           dotdone

dot1:
	VMOVSD      (SI), X4
	VFMADD231SD (DI), X4, X0
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         dot1

dotdone:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func dsumAsm(x []float64) float64
//
// Returns sum_i x[i] over len(x) elements, in the same order as ddotAsm:
// four YMM accumulators take 16 elements per iteration, then a 4-wide loop
// and a scalar loop finish the tail into the reduced sum.
TEXT ·dsumAsm(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     sum4

sum16:
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y1, Y1
	VADDPD 64(SI), Y2, Y2
	VADDPD 96(SI), Y3, Y3
	ADDQ   $128, SI
	DECQ   BX
	JNZ    sum16

sum4:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   sumreduce

sum4loop:
	VADDPD (SI), Y0, Y0
	ADDQ   $32, SI
	DECQ   BX
	JNZ    sum4loop

sumreduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	ANDQ         $3, CX
	JZ           sumdone

sum1:
	VADDSD (SI), X0, X0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    sum1

sumdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func daxpyAsm(alpha float64, x, y []float64)
//
// y[i] += alpha*x[i] over len(x) elements, one FMA per element.
TEXT ·daxpyAsm(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           axpy4

axpy16:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VMOVUPD     64(DI), Y3
	VMOVUPD     96(DI), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y3, 64(DI)
	VMOVUPD     Y4, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        BX
	JNZ         axpy16

axpy4:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   axpy1

axpy4loop:
	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        BX
	JNZ         axpy4loop

axpy1:
	ANDQ $3, CX
	JZ   axpydone

axpy1loop:
	VMOVSD      (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         axpy1loop

axpydone:
	VZEROUPPER
	RET

// func dscalAsm(alpha float64, x []float64)
//
// x[i] *= alpha over len(x) elements.
TEXT ·dscalAsm(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), DI
	MOVQ         x_len+16(FP), CX
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           scal4

scal16:
	VMULPD  (DI), Y0, Y1
	VMULPD  32(DI), Y0, Y2
	VMULPD  64(DI), Y0, Y3
	VMULPD  96(DI), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	DECQ    BX
	JNZ     scal16

scal4:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   scal1

scal4loop:
	VMULPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	DECQ    BX
	JNZ     scal4loop

scal1:
	ANDQ $3, CX
	JZ   scaldone

scal1loop:
	VMULSD (DI), X0, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scal1loop

scaldone:
	VZEROUPPER
	RET

// func idamaxAsm(x []float64) int
//
// Returns the first index i of len(x) >= 1 elements with |x[i]| equal to
// the largest |x[j]|, or 0 when no element compares equal (every element
// NaN). Two passes: the first takes the maximum of |x| (VMAXPD keeps the
// running maximum when an element is NaN, so NaNs are skipped), the second
// scans for the first element whose magnitude equals it, which resolves
// ties to the first index as the reference BLAS does.
TEXT ·idamaxAsm(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         $0x7fffffffffffffff, AX
	MOVQ         AX, X15
	VBROADCASTSD X15, Y15              // |.| mask
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	MOVQ         SI, DI
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           max4

max16:
	VANDPD (DI), Y15, Y4
	VANDPD 32(DI), Y15, Y5
	VANDPD 64(DI), Y15, Y6
	VANDPD 96(DI), Y15, Y7
	VMAXPD Y0, Y4, Y0
	VMAXPD Y1, Y5, Y1
	VMAXPD Y2, Y6, Y2
	VMAXPD Y3, Y7, Y3
	ADDQ   $128, DI
	DECQ   BX
	JNZ    max16

max4:
	MOVQ CX, DX
	ANDQ $15, DX
	MOVQ DX, BX
	SHRQ $2, BX
	JZ   maxreduce

max4loop:
	VANDPD (DI), Y15, Y4
	VMAXPD Y0, Y4, Y0
	ADDQ   $32, DI
	DECQ   BX
	JNZ    max4loop

maxreduce:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	ANDQ         $3, DX
	JZ           find

max1:
	VMOVSD (DI), X4
	VANDPD X15, X4, X4
	VMAXSD X0, X4, X0
	ADDQ   $8, DI
	DECQ   DX
	JNZ    max1

find:
	// Second pass: X0 holds max|x|; broadcast it and compare 4 at a time.
	VBROADCASTSD X0, Y14
	XORQ         AX, AX                // index of the current group
	MOVQ         CX, BX
	ANDQ         $-4, BX               // elements covered by 4-wide groups
	JZ           find1

find4:
	VANDPD    (SI)(AX*8), Y15, Y4
	VCMPPD    $0, Y14, Y4, Y5          // |x| == max
	VMOVMSKPD Y5, DX
	TESTL     DX, DX
	JNZ       found4
	ADDQ      $4, AX
	CMPQ      AX, BX
	JLT       find4

find1:
	CMPQ AX, CX
	JGE  notfound

find1loop:
	VMOVSD   (SI)(AX*8), X4
	VANDPD   X15, X4, X4
	VUCOMISD X0, X4
	JNE      find1next
	JPS      find1next             // unordered (NaN)
	JMP      done

find1next:
	INCQ AX
	CMPQ AX, CX
	JLT  find1loop

notfound:
	XORQ AX, AX
	JMP  done

found4:
	BSFL DX, DX
	ADDQ DX, AX

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func damaxAsm(x []float64) float64
//
// Returns max_i |x[i]| over len(x) elements (0 when empty), or a NaN when
// any element is NaN. Four YMM accumulators take the maximum of |x| 16
// elements per iteration (VMAXPD keeps the running maximum when an element
// is NaN, as in idamaxAsm), and four more collect NaN flags: VCMPPD's
// unordered predicate with the flag itself as one operand is sticky,
// because a true lane (all ones) is itself a NaN. A 4-wide loop and the
// reduction follow, and the scalar tail runs on the reduced lane 0 only: a
// VEX.128 instruction zeroes lanes 2-3 of its destination, so a tail
// written before the reduction would drop flags.
TEXT ·damaxAsm(SB), NOSPLIT, $0-32
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         $0x7fffffffffffffff, AX
	MOVQ         AX, X15
	VBROADCASTSD X15, Y15              // |.| mask
	VXORPD       Y0, Y0, Y0            // Y0-Y3: max|x|
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y8, Y8, Y8            // Y8-Y11: NaN flags
	VXORPD       Y9, Y9, Y9
	VXORPD       Y10, Y10, Y10
	VXORPD       Y11, Y11, Y11
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           amax4

amax16:
	VANDPD (SI), Y15, Y4
	VANDPD 32(SI), Y15, Y5
	VANDPD 64(SI), Y15, Y6
	VANDPD 96(SI), Y15, Y7
	VMAXPD Y0, Y4, Y0
	VMAXPD Y1, Y5, Y1
	VMAXPD Y2, Y6, Y2
	VMAXPD Y3, Y7, Y3
	VCMPPD $3, Y4, Y8, Y8              // flag |= isnan(|x|)
	VCMPPD $3, Y5, Y9, Y9
	VCMPPD $3, Y6, Y10, Y10
	VCMPPD $3, Y7, Y11, Y11
	ADDQ   $128, SI
	DECQ   BX
	JNZ    amax16

amax4:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   amaxreduce

amax4loop:
	VANDPD (SI), Y15, Y4
	VMAXPD Y0, Y4, Y0
	VCMPPD $3, Y4, Y8, Y8
	ADDQ   $32, SI
	DECQ   BX
	JNZ    amax4loop

amaxreduce:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VORPD        Y9, Y8, Y8
	VORPD        Y11, Y10, Y10
	VORPD        Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VORPD        X9, X8, X8
	VPERMILPD    $1, X8, X9
	VORPD        X9, X8, X8
	ANDQ         $3, CX
	JZ           amaxdone

amax1:
	VMOVSD (SI), X4
	VANDPD X15, X4, X4
	VMAXSD X0, X4, X0
	VCMPSD $3, X4, X8, X8
	ADDQ   $8, SI
	DECQ   CX
	JNZ    amax1

amaxdone:
	VORPD  X8, X0, X0                  // a set flag makes the result a NaN
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET
