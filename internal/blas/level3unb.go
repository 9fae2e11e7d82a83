package blas

// Unblocked triangular kernels: the base cases of the recursive Dtrsm/Dtrmm
// drivers in level3.go. They only see triangles of order <= triBase (one
// register tile); all off-diagonal work happens in the packed Dgemm. Shape
// validation happened in the public drivers.

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

// trmmUnbLeft computes B = alpha*op(A)*B in place for an m x m triangle,
// m <= triBase. It sweeps every column of B against the same small
// triangle, so it loads alpha*op(A) once into a local tile and runs each
// short column through the unrolled mulLower, where a Dtrmv per column
// would re-read the triangle with stride lda.
func trmmUnbLeft(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	var t triTile
	mirror := t.load(uplo, trans, diag, m, alpha, a, lda)
	var x [triBase]float64
	for j := 0; j < n; j++ {
		col := b[j*ldb : j*ldb+m]
		gather(&x, col, mirror)
		t.mulLower(&x)
		scatter(col, &x, mirror)
	}
}

// triTile is a base triangle's op(A) held in local memory as a dense,
// column-major triBase x triBase lower triangle (entry (i, k) at
// t[k*triBase+i]). An upper op(A) is stored mirrored — (i, k) holds
// op(A)(m-1-i, m-1-k) — so one lower-triangular kernel serves both.
// Entries past the triangle's order m stay zero.
type triTile [triBase * triBase]float64

// load fills the tile from the m x m triangle a (m <= triBase), scaling
// op(A) by alpha and storing a unit diagonal as alpha. It reports whether
// the tile is mirrored (op(A) is upper).
func (t *triTile) load(uplo Uplo, trans Transpose, diag Diag, m int, alpha float64, a []float64, lda int) (mirror bool) {
	*t = triTile{}
	mirror = (uplo == Upper) == (trans == NoTrans)
	for k := 0; k < m; k++ {
		for i := k; i < m; i++ {
			if i == k && diag == Unit {
				t[k*triBase+i] = alpha
				continue
			}
			r, c := i, k
			if mirror {
				r, c = m-1-i, m-1-k
			}
			if trans == Trans {
				r, c = c, r
			}
			t[k*triBase+i] = alpha * a[c*lda+r]
		}
	}
	return mirror
}

// gather copies the m-long column col into x in tile order (reversed when
// mirrored), zero-padding the rest.
func gather(x *[triBase]float64, col []float64, mirror bool) {
	*x = [triBase]float64{}
	m := len(col)
	for i, v := range col {
		if mirror {
			i = m - 1 - i
		}
		x[i] = v
	}
}

// scatter writes x back into the m-long column col, undoing gather.
func scatter(col []float64, x *[triBase]float64, mirror bool) {
	m := len(col)
	for i := range col {
		j := i
		if mirror {
			j = m - 1 - i
		}
		col[i] = x[j]
	}
}

// mulLower overwrites x with L*x for the lower triangle L in t.
func (t *triTile) mulLower(x *[triBase]float64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	x[0] = t[0] * x0
	x[1] = t[1]*x0 + t[9]*x1
	x[2] = t[2]*x0 + t[10]*x1 + t[18]*x2
	x[3] = t[3]*x0 + t[11]*x1 + t[19]*x2 + t[27]*x3
	x[4] = t[4]*x0 + t[12]*x1 + t[20]*x2 + t[28]*x3 + t[36]*x4
	x[5] = t[5]*x0 + t[13]*x1 + t[21]*x2 + t[29]*x3 + t[37]*x4 + t[45]*x5
	x[6] = t[6]*x0 + t[14]*x1 + t[22]*x2 + t[30]*x3 + t[38]*x4 + t[46]*x5 + t[54]*x6
	x[7] = t[7]*x0 + t[15]*x1 + t[23]*x2 + t[31]*x3 + t[39]*x4 + t[47]*x5 + t[55]*x6 + t[63]*x7
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
