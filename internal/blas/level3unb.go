package blas

// Unblocked triangular kernels: the base cases of the recursive Dtrsm and
// Right-side Dtrmm in level3.go (the Left-side Dtrmm and the larger Unit
// Left Dtrsm bases are the packed passes in trmmpass.go and trsmpass.go).
// They only see triangles of order <= triBase (one register tile); all
// off-diagonal work happens in the packed Dgemm. Shape validation happened
// in the public routines.

// trsmUnbLeft solves op(A)*X = B in place, column by column, for an m x m
// triangle (alpha already applied by the driver).
func trsmUnbLeft(uplo Uplo, trans Transpose, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	for j := 0; j < n; j++ {
		Dtrsv(uplo, trans, diag, m, a, lda, b[j*ldb:j*ldb+m], 1)
	}
}

// trsmUnbRight solves X*op(A) = B in place for an n x n triangle (alpha
// already applied by the driver). Column j of X is B's column j minus the
// already solved columns k it depends on, each weighted by op(A)(k, j),
// then divided by the diagonal: one Daxpy per coefficient and one Dscal
// per column over B's long contiguous columns. An upper op(A) solves left
// to right, a lower one right to left.
func trsmUnbRight(uplo Uplo, trans Transpose, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	upper := (uplo == Upper) == (trans == NoTrans)
	for jj := 0; jj < n; jj++ {
		j, lo, hi := jj, 0, jj
		if !upper {
			j, lo, hi = n-1-jj, n-jj, n
		}
		bj := b[j*ldb : j*ldb+m]
		for k := lo; k < hi; k++ {
			Daxpy(m, -opElem(trans, a, lda, k, j), b[k*ldb:k*ldb+m], 1, bj, 1)
		}
		if diag == NonUnit {
			Dscal(m, 1/a[j*lda+j], bj, 1)
		}
	}
}

// opElem returns op(A)(i, j) of the column-major a.
func opElem(trans Transpose, a []float64, lda, i, j int) float64 {
	if trans == Trans {
		return a[i*lda+j]
	}
	return a[j*lda+i]
}

// trmmUnbRight computes B = alpha*B*op(A) in place for an n x n triangle:
// column j becomes alpha*op(A)(j, j) times itself plus the other columns k
// it depends on, each weighted by alpha*op(A)(k, j). Columns are processed
// in an order that reads only not-yet-overwritten ones: right to left for
// an upper op(A), left to right for a lower one.
func trmmUnbRight(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	upper := (uplo == Upper) == (trans == NoTrans)
	for jj := 0; jj < n; jj++ {
		j, lo, hi := n-1-jj, 0, n-1-jj
		if !upper {
			j, lo, hi = jj, jj+1, n
		}
		bj := b[j*ldb : j*ldb+m]
		d := alpha
		if diag == NonUnit {
			d *= a[j*lda+j]
		}
		Dscal(m, d, bj, 1)
		for k := lo; k < hi; k++ {
			Daxpy(m, alpha*opElem(trans, a, lda, k, j), b[k*ldb:k*ldb+m], 1, bj, 1)
		}
	}
}
