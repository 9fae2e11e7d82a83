package blas

// Packing layer of the Goto-style Dgemm (see doc/KERNELS.md).
//
// The driver partitions C into MC x NC macro-tiles updated by rank-KC
// products. Before the microkernel runs, the corresponding MC x KC block of
// op(A) and KC x NC block of op(B) are copied once into contiguous,
// kernel-shaped scratch buffers:
//
//   - op(A) blocks become row panels of gemmMR-high strips: strip s holds
//     rows [s*MR, s*MR+MR) and stores, for each depth index p, the MR row
//     values contiguously (buf[s*MR*kc + p*MR + i]). alpha is folded in
//     during the copy, so it is applied exactly once per element.
//   - op(B) blocks become column panels of gemmNR-wide strips: strip s
//     holds columns [s*NR, s*NR+NR) and stores, for each p, the NR column
//     values contiguously (buf[s*NR*kc + p*NR + j]).
//
// Fringe strips are zero-padded to the full MR/NR width so the microkernel
// never sees a partial strip; the macrokernel masks the padded rows/columns
// when writing C back. Both packing directions handle NoTrans and Trans
// sources, which is what lets all four Dgemm transpose variants — and the
// Dtrsm/Dtrmm gemm-updates built on them — share the one packed path.

// packA packs the mc x kc block of op(A) whose (0,0) element is a[0] into
// MR-strip format, scaling by alpha. For trans == NoTrans, op(A)[i,p] is
// a[p*lda+i]; for trans == Trans it is a[i*lda+p]. buf must hold at least
// ceilMul(mc, gemmMR)*kc elements; padded rows are zeroed.
//
// With useAsmKernel, every full strip of either orientation is packed by
// an assembly kernel (pack_amd64.s), and fringe strips by the Go loops.
// The kernels check no bounds, so before each call the last source element
// it reads is touched here; dst is already sliced to the full strip.
func packA(trans Transpose, mc, kc int, alpha float64, a []float64, lda int, buf []float64) {
	if kc < 1 {
		return
	}
	for ir := 0; ir < mc; ir += gemmMR {
		ib := min(gemmMR, mc-ir)
		dst := buf[ir*kc : ir*kc+gemmMR*kc]
		if trans == NoTrans {
			// Source columns are contiguous over the row index.
			if ib == gemmMR && useAsmKernel {
				_ = a[(kc-1)*lda+ir+gemmMR-1]
				packANoTransAsm(kc, alpha, &a[ir], lda, &dst[0])
				continue
			}
			for p := 0; p < kc; p++ {
				src := a[p*lda+ir : p*lda+ir+ib]
				d := dst[p*gemmMR : p*gemmMR+gemmMR]
				for i, v := range src {
					d[i] = alpha * v
				}
				for i := ib; i < gemmMR; i++ {
					d[i] = 0
				}
			}
			continue
		}
		// Trans: op(A) row i is the contiguous source row a[(ir+i)*lda:].
		if ib == gemmMR {
			packATransStrip(kc, alpha, a[ir*lda:], lda, dst)
			continue
		}
		for i := range dst {
			dst[i] = 0
		}
		for i := 0; i < ib; i++ {
			src := a[(ir+i)*lda : (ir+i)*lda+kc]
			for p, v := range src {
				dst[p*gemmMR+i] = alpha * v
			}
		}
	}
}

// packB packs the kc x nc block of op(B) whose (0,0) element is b[0] into
// NR-strip format. For trans == NoTrans, op(B)[p,j] is b[j*ldb+p]; for
// trans == Trans it is b[p*ldb+j]. buf must hold at least
// kc*ceilMul(nc, gemmNR) elements; padded columns are zeroed. Full strips
// of a NoTrans B go to an assembly kernel as in packA. No caller packs a
// transposed B in a factorization, so that orientation keeps the Go loop.
func packB(trans Transpose, kc, nc int, b []float64, ldb int, buf []float64) {
	if kc < 1 {
		return
	}
	for jr := 0; jr < nc; jr += gemmNR {
		jb := min(gemmNR, nc-jr)
		dst := buf[jr*kc : jr*kc+gemmNR*kc]
		if trans == NoTrans {
			// op(B) column j is the contiguous source column b[(jr+j)*ldb:].
			if jb == gemmNR && useAsmKernel {
				_ = b[(jr+gemmNR-1)*ldb+kc-1]
				packBNoTransAsm(kc, &b[jr*ldb], ldb, &dst[0])
				continue
			}
			// Whole groups of four columns are packed four at a time
			// (packBGroup); a fringe strip is cleared first, and its last
			// columns are copied one by one.
			if jb < gemmNR {
				for i := range dst {
					dst[i] = 0
				}
			}
			g := jb / 4 * 4
			for j := 0; j < g; j += 4 {
				packBGroup(kc, b[(jr+j)*ldb:], ldb, dst[j:])
			}
			for j := g; j < jb; j++ {
				src := b[(jr+j)*ldb : (jr+j)*ldb+kc]
				for p, v := range src {
					dst[p*gemmNR+j] = v
				}
			}
			continue
		}
		// Trans: for fixed p the NR column values are contiguous in the
		// source row b[p*ldb+jr:].
		for p := 0; p < kc; p++ {
			src := b[p*ldb+jr : p*ldb+jr+jb]
			d := dst[p*gemmNR : p*gemmNR+gemmNR]
			for j, v := range src {
				d[j] = v
			}
			for j := jb; j < gemmNR; j++ {
				d[j] = 0
			}
		}
	}
}

// packATransStrip packs one full MR-row strip of a transposed A: the eight
// op(A) rows are eight contiguous source rows, read as parallel streams so
// each depth index writes one contiguous group of MR values. kc >= 1, and
// dst holds the full strip.
func packATransStrip(kc int, alpha float64, a []float64, lda int, dst []float64) {
	if useAsmKernel {
		_ = a[(gemmMR-1)*lda+kc-1]
		packATransAsm(kc, alpha, &a[0], lda, &dst[0])
		return
	}
	r0 := a[0*lda : 0*lda+kc]
	r1 := a[1*lda : 1*lda+kc]
	r2 := a[2*lda : 2*lda+kc]
	r3 := a[3*lda : 3*lda+kc]
	r4 := a[4*lda : 4*lda+kc]
	r5 := a[5*lda : 5*lda+kc]
	r6 := a[6*lda : 6*lda+kc]
	r7 := a[7*lda : 7*lda+kc]
	for p := range r0 {
		d := dst[p*gemmMR : p*gemmMR+gemmMR]
		d[0], d[1], d[2], d[3] = alpha*r0[p], alpha*r1[p], alpha*r2[p], alpha*r3[p]
		d[4], d[5], d[6], d[7] = alpha*r4[p], alpha*r5[p], alpha*r6[p], alpha*r7[p]
	}
}

// packBGroup packs four columns of a NoTrans B into lanes 0-3 of each
// depth step of the NR-wide strip dst: the columns are read as parallel
// streams so each depth index writes one contiguous group of four values.
func packBGroup(kc int, b []float64, ldb int, dst []float64) {
	c0 := b[0*ldb : 0*ldb+kc]
	c1 := b[1*ldb : 1*ldb+kc]
	c2 := b[2*ldb : 2*ldb+kc]
	c3 := b[3*ldb : 3*ldb+kc]
	for p := range c0 {
		d := dst[p*gemmNR : p*gemmNR+4]
		d[0], d[1], d[2], d[3] = c0[p], c1[p], c2[p], c3[p]
	}
}

// ceilMul rounds n up to the next multiple of q.
func ceilMul(n, q int) int {
	return (n + q - 1) / q * q
}
