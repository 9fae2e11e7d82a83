package lapack

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// OneNormEst estimates the 1-norm of an implicit n x n operator B given
// only matrix-vector products with B and B^T, using Hager's algorithm (the
// method behind LAPACK's dlacon). apply and applyT overwrite their argument
// with B*x and B^T*x respectively. The estimate is a lower bound that is
// almost always within a small factor of the true norm.
func OneNormEst(n int, apply, applyT func(x []float64)) float64 {
	if n == 0 {
		return 0
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	apply(x)
	est := norm1(x)
	if n == 1 {
		return est
	}
	xi := make([]float64, n)
	for iter := 0; iter < 5; iter++ {
		for i, v := range x {
			if v >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		z := make([]float64, n)
		copy(z, xi)
		applyT(z)
		j, zmax := 0, 0.0
		for i, v := range z {
			if a := math.Abs(v); a > zmax {
				j, zmax = i, a
			}
		}
		// Convergence: the new direction is no better than the current one.
		dot := 0.0
		for i := range z {
			dot += z[i] * x[i]
		}
		if zmax <= math.Abs(dot) {
			break
		}
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		apply(x)
		newEst := norm1(x)
		if newEst <= est {
			break
		}
		est = newEst
	}
	return est
}

func norm1(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// LUSolveTranspose solves A^T * x = b given the in-place factorization
// produced by GETF2/RGETF2/GETRF: A = P^T L U, so A^T = U^T L^T P and
// x = P^T (L^T)^{-1} (U^T)^{-1} b. b is overwritten with the solution.
func LUSolveTranspose(lu *matrix.Dense, ipiv []int, b *matrix.Dense) {
	if lu.Rows != lu.Cols {
		panic(fmt.Errorf("%w: LUSolveTranspose needs square factor", ErrShape))
	}
	if b.Rows != lu.Rows {
		panic(fmt.Errorf("%w: LUSolveTranspose rhs rows mismatch", ErrShape))
	}
	blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, lu, b)
	blas.Trsm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, lu, b)
	LASWPBackward(b, ipiv, 0, len(ipiv))
}

// GECON estimates the reciprocal 1-norm condition number of a square matrix
// from its LU factorization and the 1-norm of the original matrix, like
// LAPACK dgecon: rcond = 1 / (||A||_1 * est(||A^{-1}||_1)). Returns 0 for a
// singular or numerically singular factor.
func GECON(lu *matrix.Dense, ipiv []int, anorm float64) float64 {
	n := lu.Rows
	if n != lu.Cols {
		panic(fmt.Errorf("%w: GECON needs square factor, got %dx%d", ErrShape, n, lu.Cols))
	}
	for i := 0; i < n; i++ {
		if lu.At(i, i) == 0 {
			return 0
		}
	}
	if anorm == 0 {
		return 0
	}
	buf := matrix.New(n, 1)
	invNorm := OneNormEst(n,
		func(x []float64) {
			copy(buf.Col(0), x)
			LUSolve(lu, ipiv, buf)
			copy(x, buf.Col(0))
		},
		func(x []float64) {
			copy(buf.Col(0), x)
			LUSolveTranspose(lu, ipiv, buf)
			copy(x, buf.Col(0))
		})
	if invNorm == 0 || math.IsInf(invNorm, 0) || math.IsNaN(invNorm) {
		return 0
	}
	return 1 / (anorm * invNorm)
}
