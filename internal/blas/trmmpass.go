package blas

import "repro/internal/scratch"

// trmmPassMax is the largest triangle trmmLeft multiplies in one packed
// pass (trmmPass) instead of halving it. The packed triangle then takes at
// most 128 KiB, so it stays in L2 while every NR strip of B sweeps it.
const trmmPassMax = 128

// trmmPassNC is the width of the column block of B that trmmPass packs at
// once, a multiple of gemmNR: with order trmmPassMax the block is 252 KiB,
// and it is consumed straight after packing while it is still in L2.
const trmmPassNC = 252

// trmmPass computes B = alpha*op(A)*B in place for an m x m triangle,
// m <= trmmPassMax. alpha*op(A) is packed once (packTri). Then each column
// block of B is packed and cleared, and every MR x NR tile of the block is
// rebuilt by one register tile call over the depth range where its strip of
// op(A) is nonzero. Because the packed copy holds B's input, the tiles can
// be written over B in any order.
func trmmPass(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	upper := (uplo == Upper) == (trans == NoTrans)
	ap := scratch.Get(ceilMul(m, gemmMR) * m)
	defer scratch.Put(ap)
	packTri(upper, trans, diag, m, alpha, a, lda, ap)
	nc := min(n, trmmPassNC)
	bp := scratch.Get(m * ceilMul(nc, gemmNR))
	defer scratch.Put(bp)
	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		bc := b[jc*ldb:]
		packB(NoTrans, m, ncb, bc, ldb, bp)
		scaleCols(ncb, m, 0, bc, ldb)
		for jr := 0; jr < ncb; jr += gemmNR {
			jb := min(gemmNR, ncb-jr)
			for ir := 0; ir < m; ir += gemmMR {
				ib := min(gemmMR, m-ir)
				// Rows [ir, ir+ib) of op(A) are nonzero from the strip's
				// first row on (upper) or up to its last row (lower).
				lo, hi := ir, m
				if !upper {
					lo, hi = 0, ir+ib
				}
				as := ap[ir*m+lo*gemmMR : ir*m+hi*gemmMR]
				bs := bp[jr*m+lo*gemmNR : jr*m+hi*gemmNR]
				kernelTile(hi-lo, as, gemmMR, bs, bc[jr*ldb+ir:], ldb, 1, ib, jb)
			}
		}
	}
}

// packTri packs alpha*op(A), an m x m triangle, into MR-row strips in
// packA's layout at depth m (row i of the strip at ir, depth p, sits at
// buf[ir*m + p*MR + i]), filling each strip only over the depth range
// trmmPass reads. That range is a dense block, packed by packA, and the
// strip's diagonal block, where the entries outside the triangle and the
// rows past m are zero and a Unit diagonal is alpha: those are written,
// never read, so whatever A stores there cannot reach B. buf must hold
// ceilMul(m, MR)*m elements.
func packTri(upper bool, trans Transpose, diag Diag, m int, alpha float64, a []float64, lda int, buf []float64) {
	for ir := 0; ir < m; ir += gemmMR {
		ib := min(gemmMR, m-ir)
		strip := buf[ir*m:]
		lo, hi := 0, ir
		if upper {
			lo, hi = ir+ib, m
		}
		if lo < hi {
			aoff := lo*lda + ir
			if trans == Trans {
				aoff = ir*lda + lo
			}
			packA(trans, ib, hi-lo, alpha, a[aoff:], lda, strip[lo*gemmMR:])
		}
		// Column c of the diagonal block holds the strip's rows [lo, hi)
		// off the diagonal, those above row c (upper) or below it (lower),
		// and the diagonal element in row c.
		for c := 0; c < ib; c++ {
			p := ir + c
			d := strip[p*gemmMR : p*gemmMR+gemmMR]
			clear(d)
			lo, hi := 0, c
			if !upper {
				lo, hi = c+1, ib
			}
			for i := lo; i < hi; i++ {
				d[i] = alpha * opElem(trans, a, lda, ir+i, p)
			}
			d[c] = alpha
			if diag == NonUnit {
				d[c] = alpha * a[p*lda+p]
			}
		}
	}
}
