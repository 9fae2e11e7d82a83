package blas

import "repro/internal/scratch"

// trsmPass solves op(A)*X = B in place for an m x m triangle with a Unit
// diagonal, triBase < m <= trmmPassMax. -op(A) is packed once in
// trmmPass's layout (packTri with alpha -1), and each strip's 8x8 diagonal
// block is replaced by Z - I, where Z is the inverse of the strip's unit
// diagonal block (invertDiag). Then every NR-column strip of B is solved
// one MR-row strip of op(A) at a time, top down for a lower op(A) and
// bottom up for an upper one. For each MR x NR tile of B:
//
//  1. one tile call adds -op(A)'s off-diagonal rows times the rows of X
//     already solved, read from the packed strip bp, which leaves T;
//  2. T is packed into bp, and a second tile call adds (Z - I)*T, which
//     leaves X = Z*T;
//  3. X is packed into bp for the rows that follow.
//
// bp holds one NR-column strip at depth m, so it stays in L1 while the
// strip is solved. A tile of B packs exactly as packB packs an ib x jb B,
// element (i, j) at i*NR + j with fringe columns zeroed, so packB does it.
func trsmPass(uplo Uplo, trans Transpose, m, n int, a []float64, lda int, b []float64, ldb int) {
	upper := (uplo == Upper) == (trans == NoTrans)
	ap := scratch.Get(ceilMul(m, gemmMR) * m)
	defer scratch.Put(ap)
	packTri(upper, trans, Unit, m, -1, a, lda, ap)
	invertDiag(upper, m, ap)
	bp := scratch.Get(m * gemmNR)
	defer scratch.Put(bp)
	strips := (m + gemmMR - 1) / gemmMR
	for jr := 0; jr < n; jr += gemmNR {
		jb := min(gemmNR, n-jr)
		for s := 0; s < strips; s++ {
			ir := s * gemmMR
			if upper {
				ir = (strips - 1 - s) * gemmMR
			}
			ib := min(gemmMR, m-ir)
			// The rows already solved: those above the strip (lower) or
			// below it (upper).
			lo, hi := 0, ir
			if upper {
				lo, hi = ir+ib, m
			}
			as := ap[ir*m : ir*m+m*gemmMR]
			c := b[jr*ldb+ir:]
			if lo < hi {
				kernelTile(hi-lo, as[lo*gemmMR:hi*gemmMR], gemmMR, bp[lo*gemmNR:hi*gemmNR], c, ldb, 1, ib, jb)
			}
			bs := bp[ir*gemmNR : (ir+ib)*gemmNR]
			packB(NoTrans, ib, jb, c, ldb, bs)
			kernelTile(ib, as[ir*gemmMR:(ir+ib)*gemmMR], gemmMR, bs, c, ldb, 1, ib, jb)
			if s < strips-1 {
				packB(NoTrans, ib, jb, c, ldb, bs)
			}
		}
	}
}

// invertDiag overwrites the diagonal block of every strip that packTri
// packed with alpha -1 and a Unit diagonal. The block holds P = -D for the
// strip's unit triangle D, element (i, c) at depth c and lane i; it
// becomes Z - I for Z = D⁻¹, with zeros on the diagonal and outside the
// triangle. Z*D = I gives column c of Z as the sum of P(k, c) times column
// k of Z over the columns k on the far side of c: right of it for a lower
// D, left of it for an upper one. So the columns are formed in the other
// direction, each from P's column c before that column is overwritten,
// with all eight lanes of a column summed in registers. When D's
// off-diagonal entries are at most 1 in magnitude, as in every
// partial-pivoting L, |Z(i, c)| <= 2^(|i-c|-1), at most 2⁶ in an 8x8
// block.
func invertDiag(upper bool, m int, ap []float64) {
	for ir := 0; ir < m; ir += gemmMR {
		ib := min(gemmMR, m-ir)
		blk := ap[ir*m+ir*gemmMR : ir*m+(ir+ib)*gemmMR]
		var z [gemmMR][gemmMR]float64 // z[c] is column c of Z
		for cc := 0; cc < ib; cc++ {
			c, lo, hi := ib-1-cc, ib-cc, ib
			if upper {
				c, lo, hi = cc, 0, cc
			}
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for k := lo; k < hi; k++ {
				p, zk := blk[c*gemmMR+k], &z[k]
				s0 += p * zk[0]
				s1 += p * zk[1]
				s2 += p * zk[2]
				s3 += p * zk[3]
				s4 += p * zk[4]
				s5 += p * zk[5]
				s6 += p * zk[6]
				s7 += p * zk[7]
			}
			// Lane c is zero here: Z - I has a zero diagonal.
			zc := &z[c]
			zc[0], zc[1], zc[2], zc[3] = s0, s1, s2, s3
			zc[4], zc[5], zc[6], zc[7] = s4, s5, s6, s7
			*(*[gemmMR]float64)(blk[c*gemmMR:]) = *zc
			zc[c] = 1
		}
	}
}
