// Package lapack implements the LAPACK-style factorization kernels the
// communication-avoiding algorithms are built from: unblocked, blocked and
// recursive LU with partial pivoting, and unblocked, blocked and recursive
// Householder QR with compact-WY block reflectors.
//
// The routines mirror their LAPACK namesakes (GETF2, GETRF, LASWP, GEQR2,
// GEQRF, LARFT, LARFB, ...) so the higher-level algorithm code reads like
// the paper's pseudo-code. All matrices are column-major *matrix.Dense
// values; factorizations are in place.
package lapack

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// ErrSingular is reported when a factorization encounters an exactly zero
// pivot. The factorization is still completed as far as possible, matching
// LAPACK's INFO > 0 convention.
var ErrSingular = errors.New("lapack: matrix is exactly singular")

// GETF2 computes the LU factorization with partial pivoting of the m x n
// matrix a using unblocked BLAS-2 operations (the algorithm behind the
// paper's MKL_dgetf2 baseline). On return a holds L (unit lower, below the
// diagonal) and U; ipiv[k] records that row k was swapped with row ipiv[k]
// (0-based, ipiv[k] >= k). len(ipiv) must be min(m, n).
func GETF2(a *matrix.Dense, ipiv []int) error {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(ipiv) != k {
		panic(fmt.Errorf("%w: GETF2 ipiv length %d want %d", ErrShape, len(ipiv), k))
	}
	var err error
	for j := 0; j < k; j++ {
		// Find pivot in column j at or below the diagonal.
		col := a.Col(j)
		p := j + blas.Idamax(m-j, col[j:], 1)
		ipiv[j] = p
		if a.At(p, j) == 0 {
			err = ErrSingular
			continue
		}
		if p != j {
			a.SwapRows(j, p)
		}
		// Scale the sub-column to form L(j+1:m, j).
		blas.Dscal(m-j-1, 1/col[j], col[j+1:], 1)
		// Rank-1 update of the trailing submatrix.
		if j < n-1 {
			trail := a.View(j+1, j+1, m-j-1, n-j-1)
			blas.Dger(trail.Rows, trail.Cols, -1, col[j+1:], 1,
				a.Data[(j+1)*a.Stride+j:], a.Stride, trail.Data, trail.Stride)
		}
	}
	return err
}

// RGETF2 computes the same factorization as GETF2 using Toledo's recursive
// algorithm, which performs almost all of its flops in BLAS-3 calls. It is
// the "rgetf2" kernel the paper uses at the leaves of the TSLU reduction
// tree. Requirements and output convention match GETF2.
func RGETF2(a *matrix.Dense, ipiv []int) error {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(ipiv) != k {
		panic(fmt.Errorf("%w: RGETF2 ipiv length %d want %d", ErrShape, len(ipiv), k))
	}
	return rgetf2(a, ipiv)
}

// panelBase is the widest panel the recursive RGETF2 and GEQR3 split no
// further: they finish it with the unblocked GETF2, or GEQR2 plus Larft.
// Below one 8-row register tile the packed Dgemm of a further split would
// mostly multiply the tile's zero padding.
const panelBase = 8

// panelSplit returns the width of the left half when a panel of width n >
// panelBase is split: n/2 rounded down to a multiple of panelBase.
func panelSplit(n int) int {
	return max(panelBase, n/2/panelBase*panelBase)
}

func rgetf2(a *matrix.Dense, ipiv []int) error {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if k == 0 {
		return nil
	}
	if k <= panelBase {
		// Base case: a narrow (or short) panel — plain GEPP.
		return GETF2(a, ipiv)
	}
	nl := panelSplit(k)
	var err error
	// Factor the left half recursively, keeping the first failure (LAPACK
	// info convention).
	left := a.View(0, 0, m, nl)
	if e := rgetf2(left, ipiv[:nl]); e != nil {
		err = e
	}
	// Apply the left half's interchanges to the right half.
	right := a.View(0, nl, m, n-nl)
	LASWP(right, ipiv[:nl], 0, nl)
	// U12 = L11^{-1} A12.
	a11 := a.View(0, 0, nl, nl)
	a12 := right.View(0, 0, nl, n-nl)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, a11, a12)
	// A22 -= L21 U12.
	a21 := a.View(nl, 0, m-nl, nl)
	a22 := right.View(nl, 0, m-nl, n-nl)
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a21, a12, 1, a22)
	// Factor the trailing part recursively; an earlier failure wins.
	if e := rgetf2(a22, ipiv[nl:k]); e != nil && err == nil {
		err = e
	}
	// Fix up pivot indices and pull the interchanges back across the left
	// columns.
	for i := nl; i < k; i++ {
		ipiv[i] += nl
	}
	LASWP(a.View(0, 0, m, nl), ipiv[:k], nl, k)
	return err
}

// GETRF computes the LU factorization with partial pivoting of the m x n
// matrix a using the classic blocked right-looking algorithm with panel
// width nb (the algorithm behind the paper's MKL_dgetrf baseline, run
// sequentially). Output convention matches GETF2.
func GETRF(a *matrix.Dense, ipiv []int, nb int) error {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(ipiv) != k {
		panic(fmt.Errorf("%w: GETRF ipiv length %d want %d", ErrShape, len(ipiv), k))
	}
	if nb < 1 {
		panic(fmt.Errorf("%w: GETRF block size %d", ErrShape, nb))
	}
	var err error
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		// Factor the panel A[j:m, j:j+jb] with the recursive kernel,
		// keeping the first failure (LAPACK info convention).
		panel := a.View(j, j, m-j, jb)
		if e := RGETF2(panel, ipiv[j:j+jb]); e != nil && err == nil {
			err = e
		}
		// Globalize pivot indices.
		for i := j; i < j+jb; i++ {
			ipiv[i] += j
		}
		// Apply interchanges to the columns left of the panel...
		if j > 0 {
			LASWP(a.View(0, 0, m, j), ipiv[:j+jb], j, j+jb)
		}
		// ...and right of the panel.
		if j+jb < n {
			rest := a.View(0, j+jb, m, n-j-jb)
			LASWP(rest, ipiv[:j+jb], j, j+jb)
			// U12 = L11^{-1} A12.
			l11 := a.View(j, j, jb, jb)
			u12 := a.View(j, j+jb, jb, n-j-jb)
			blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
			// A22 -= L21 U12.
			if j+jb < m {
				l21 := a.View(j+jb, j, m-j-jb, jb)
				a22 := a.View(j+jb, j+jb, m-j-jb, n-j-jb)
				blas.Gemm(blas.NoTrans, blas.NoTrans, -1, l21, u12, 1, a22)
			}
		}
	}
	return err
}

// LASWP applies the row interchanges recorded in ipiv[k1:k2] to a, in
// forward order: for k = k1..k2-1, swap rows k and ipiv[k]. Indices in ipiv
// are absolute row indices of a.
func LASWP(a *matrix.Dense, ipiv []int, k1, k2 int) {
	if k1 < 0 || k2 > len(ipiv) || k1 > k2 {
		panic(fmt.Errorf("%w: LASWP range [%d, %d) of %d", ErrShape, k1, k2, len(ipiv)))
	}
	Interchange(a, ipiv[k1:k2], k1, false)
}

// LASWPBackward applies the interchanges in reverse order, undoing a prior
// LASWP with the same arguments.
func LASWPBackward(a *matrix.Dense, ipiv []int, k1, k2 int) {
	if k1 < 0 || k2 > len(ipiv) || k1 > k2 {
		panic(fmt.Errorf("%w: LASWPBackward range [%d, %d) of %d", ErrShape, k1, k2, len(ipiv)))
	}
	Interchange(a, ipiv[k1:k2], k1, true)
}

// Interchange applies a sequential list of row interchanges to a: for j in
// order, rows r0+j and piv[j] trade places (in reverse order when undo is
// set, which reverts the forward pass). It is the one loop behind LASWP and
// LASWPBackward, and so behind every LU pivot application: the U,
// finalize and left-swap tasks of CALU, each RGETF2 step and the
// sequential references. Swaps on different columns are independent, so it
// walks four adjacent columns at a time (the last 0-3 one at a time) and
// applies the whole list there, each swap exchanging four pairs of
// independent entries, instead of one strided pass over every column per
// swap; the result is the same. Out-of-range rows panic before a is
// touched.
func Interchange(a *matrix.Dense, piv []int, r0 int, undo bool) {
	for j, p := range piv {
		if r := r0 + j; p != r && (r < 0 || r >= a.Rows || p < 0 || p >= a.Rows) {
			panic(fmt.Errorf("%w: interchange rows (%d, %d) out of range %d", ErrShape, r, p, a.Rows))
		}
	}
	first, end, step := 0, len(piv), 1
	if undo {
		first, end, step = len(piv)-1, -1, -1
	}
	m, s := a.Rows, a.Stride
	c := 0
	for ; c+4 <= a.Cols; c += 4 {
		c0 := a.Data[c*s:][:m]
		c1 := a.Data[(c+1)*s:][:m]
		c2 := a.Data[(c+2)*s:][:m]
		c3 := a.Data[(c+3)*s:][:m]
		for j := first; j != end; j += step {
			if r, p := r0+j, piv[j]; p != r {
				c0[r], c0[p] = c0[p], c0[r]
				c1[r], c1[p] = c1[p], c1[r]
				c2[r], c2[p] = c2[p], c2[r]
				c3[r], c3[p] = c3[p], c3[r]
			}
		}
	}
	for ; c < a.Cols; c++ {
		col := a.Data[c*s:][:m]
		for j := first; j != end; j += step {
			if r, p := r0+j, piv[j]; p != r {
				col[r], col[p] = col[p], col[r]
			}
		}
	}
}

// IpivToPerm converts a LAPACK-style interchange vector into an explicit
// row permutation p of length m such that factored(i, :) == original(p[i], :).
func IpivToPerm(ipiv []int, m int) []int {
	p := make([]int, m)
	for i := range p {
		p[i] = i
	}
	for k, pk := range ipiv {
		p[k], p[pk] = p[pk], p[k]
	}
	return p
}

// LUSolve solves A*x = b given the in-place LU factorization lu and pivot
// vector ipiv produced by GETF2/RGETF2/GETRF on a square matrix. b is
// overwritten with the solution; it must have lu.Rows rows.
func LUSolve(lu *matrix.Dense, ipiv []int, b *matrix.Dense) {
	if lu.Rows != lu.Cols {
		panic(fmt.Errorf("%w: LUSolve needs square factor, got %dx%d", ErrShape, lu.Rows, lu.Cols))
	}
	if b.Rows != lu.Rows {
		panic(fmt.Errorf("%w: LUSolve rhs rows %d want %d", ErrShape, b.Rows, lu.Rows))
	}
	LASWP(b, ipiv, 0, len(ipiv))
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, lu, b)
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, lu, b)
}

// ExtractLU splits an in-place LU factor into explicit L (m x k, unit
// diagonal) and U (k x n) matrices, k = min(m, n). Useful for verification.
func ExtractLU(a *matrix.Dense) (l, u *matrix.Dense) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	l = matrix.New(m, k)
	u = matrix.New(k, n)
	for j := 0; j < k; j++ {
		l.Set(j, j, 1)
		for i := j + 1; i < m; i++ {
			l.Set(i, j, a.At(i, j))
		}
	}
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, a.At(i, j))
		}
	}
	return l, u
}

// GrowthFactor returns the element growth max|U| / max|A| of an in-place LU
// factorization relative to the original matrix orig. It is the quantity the
// paper's stability discussion (via [12]) is about.
func GrowthFactor(lu *matrix.Dense, orig *matrix.Dense) float64 {
	maxA := orig.MaxAbs()
	if maxA == 0 {
		return 0
	}
	return MaxUpper(lu) / maxA
}

// MaxUpper returns max|U|: the largest magnitude on or above the diagonal
// of an in-place LU factor. It is the single source of the numerator in
// every growth computation — GrowthFactor and the CALU runtime guardrail
// both divide it by a max|A|.
func MaxUpper(lu *matrix.Dense) float64 {
	k := min(lu.Rows, lu.Cols)
	maxU := 0.0
	for i := 0; i < k; i++ {
		for j := i; j < lu.Cols; j++ {
			if v := math.Abs(lu.At(i, j)); v > maxU {
				maxU = v
			}
		}
	}
	return maxU
}

// GETRI computes the inverse of a square matrix from its in-place LU
// factorization and pivot vector (as produced by GETF2/RGETF2/GETRF),
// LAPACK-style: it solves A * X = I block-column by block-column. Returns a
// fresh n x n matrix; the factor is left untouched.
func GETRI(lu *matrix.Dense, ipiv []int) *matrix.Dense {
	n := lu.Rows
	if n != lu.Cols {
		panic(fmt.Errorf("%w: GETRI needs square factor, got %dx%d", ErrShape, n, lu.Cols))
	}
	inv := matrix.Identity(n)
	const nb = 32
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		cols := inv.View(0, j, n, jb)
		LUSolve(lu, ipiv, cols)
	}
	return inv
}
