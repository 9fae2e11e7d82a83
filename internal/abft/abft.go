// Package abft implements the checksum arithmetic behind algorithm-based
// fault tolerance (Huang–Abraham style) for the CALU and CAQR
// factorizations. The guarded invariant is the column-sum identity: for LU
// with partial-style pivoting, e^T P A = e^T L U, and row interchanges never
// change a column's sum, so
//
//	colsum_j(A) = sum_{t<=j} (1 + sum_{i>t} L(i,t)) * U(t,j)
//
// holds for every column j of the finished factors; for QR, e^T A = u^T R
// with u = Q^T e. Both sides are O(m) per column to evaluate against the
// checksums of the original matrix, so verification costs O(m n) per panel
// against the factorization's O(m n b) — and any silent corruption of a
// factor entry, a trailing-update output or a pivot decision perturbs one
// side of the identity but not the other.
//
// Every function here is a straight loop nest over existing buffers, with
// the column sums and dot products on the unit-stride blas.Dsum and
// blas.Ddot (vector kernels where the host has them): the package is on the
// hotpath-alloc lint's hot-root list and must stay allocation free
// (internal/scratch is the sanctioned source of temporaries).
package abft

import (
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/scratch"
)

// ColumnSums fills sums[j] with the column sums of a (sums[j] = e^T a e_j)
// for j < min(a.Cols, len(sums)) — the checksum vector of a pristine matrix
// or panel, captured before factoring overwrites it.
func ColumnSums(a *matrix.Dense, sums []float64) {
	n := min(a.Cols, len(sums))
	for j := 0; j < n; j++ {
		sums[j] = blas.Dsum(a.Col(j))
	}
}

// AccumulateLSums fills vsums[t], for t in [c0, c1), with the column sum of
// the finished unit-lower L column t stored in-place in a:
// vsums[t] = 1 + sum_{i>t} a(i,t). Later iterations only permute these rows
// (row swaps within the column), so the sums stay valid for the rest of the
// factorization — each panel's verification task computes them once.
func AccumulateLSums(a *matrix.Dense, c0, c1 int, vsums []float64) {
	for t := c0; t < c1; t++ {
		vsums[t] = 1 + blas.Dsum(a.Col(t)[t+1:])
	}
}

// VerifyLUColumns checks the LU column-sum identity for columns [c0, c1) of
// the in-place factors in a: |sum_{t<=j} vsums[t]*a(t,j) - wsums[j]| <= tol,
// where wsums are the original matrix's column sums and vsums the L column
// sums accumulated so far (AccumulateLSums over every finished panel). It
// returns the first offending column index, or -1 when all pass. A NaN
// difference counts as a mismatch — corruption can turn a factor entry into
// NaN, and a comparison that NaN slips through would defeat the check.
func VerifyLUColumns(a *matrix.Dense, c0, c1 int, vsums, wsums []float64, tol float64) int {
	for j := c0; j < c1; j++ {
		pred := blas.Ddot(j+1, vsums, 1, a.Col(j), 1)
		if !(math.Abs(pred-wsums[j]) <= tol) {
			return j
		}
	}
	return -1
}

// VerifyLUPanel checks a tournament panel's composite factor against the
// matrix it claims to factor, before anything is written back: the winner
// rows idx of a (columns [c0, c0+fac.Cols)) must equal L_kk * U of the
// kk x w composite fac (L unit lower, U upper, packed). The check compares
// column sums of both sides — sum_i a(idx[i], c0+j) against
// sum_t (1 + sum_{i>t} fac(i,t)) * fac(t,j) — within tol. The winner rows
// are still pristine here (tournament tasks factor pooled scratch copies),
// so a mismatch means fac or idx was corrupted somewhere in the reduction
// tree, or an earlier update wrote a wrong value into the panel.
func VerifyLUPanel(a *matrix.Dense, idx []int, fac *matrix.Dense, c0 int, tol float64) bool {
	kk, w := fac.Rows, fac.Cols
	if kk > len(idx) {
		kk = len(idx)
	}
	vf := scratch.Get(kk)
	for t := 0; t < kk; t++ {
		vf[t] = 1 + blas.Dsum(fac.Col(t)[t+1:kk])
	}
	ok := true
	for j := 0; j < w; j++ {
		aCol := a.Col(c0 + j)
		actual := 0.0
		for i := 0; i < kk; i++ {
			actual += aCol[idx[i]]
		}
		pred := blas.Ddot(min(j+1, kk), vf, 1, fac.Col(j), 1)
		if !(math.Abs(actual-pred) <= tol) {
			ok = false
			break
		}
	}
	scratch.Put(vf)
	return ok
}

// VerifyGEPPPanel checks an in-place GEPP-factored panel (L\U packed, row
// interchanges applied) against ws, the column sums of the panel captured
// before factoring: row swaps leave column sums unchanged, so
// sum_{t<=j} (1 + sum_{i>t} panel(i,t)) * panel(t,j) must reproduce ws[j]
// within tol. This is how a guardrail- or corruption-triggered panel
// recomputation proves itself before its result is written back.
func VerifyGEPPPanel(panel *matrix.Dense, ws []float64, tol float64) bool {
	mr, w := panel.Rows, panel.Cols
	kk := min(mr, w)
	vl := scratch.Get(kk)
	for t := 0; t < kk; t++ {
		vl[t] = 1 + blas.Dsum(panel.Col(t)[t+1:])
	}
	ok := true
	for j := 0; j < w; j++ {
		pred := blas.Ddot(min(j+1, kk), vl, 1, panel.Col(j), 1)
		if !(math.Abs(pred-ws[j]) <= tol) {
			ok = false
			break
		}
	}
	scratch.Put(vl)
	return ok
}

// VerifyQRColumns checks the QR column-sum identity for columns [c0, c1) of
// the in-place factorization in a: |sum_{i<=j} u[i]*a(i,j) - wsums[j]| <=
// tol, where u is the carried checksum vector Q^T e (maintained by applying
// every Householder transform to a ones vector alongside the matrix) and
// wsums are the original column sums. Only the upper triangle of a is read —
// that is where R lives; below it are Householder vectors. Returns the first
// offending column, or -1.
func VerifyQRColumns(a *matrix.Dense, u []float64, c0, c1 int, wsums []float64, tol float64) int {
	for j := c0; j < c1; j++ {
		pred := blas.Ddot(j+1, u, 1, a.Col(j), 1)
		if !(math.Abs(pred-wsums[j]) <= tol) {
			return j
		}
	}
	return -1
}
