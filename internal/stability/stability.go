// Package stability measures the numerical quality of the factorizations:
// element growth and normwise backward error for LU variants, residual and
// loss of orthogonality for QR variants. It backs the paper's Section II
// claim (via Grigori, Demmel and Xiang) that CALU's ca-pivoting is as
// stable as Gaussian elimination with partial pivoting in practice, and
// lets the repository contrast both with the incremental pivoting used by
// the tiled (PLASMA-style) LU.
package stability

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/tslu"
)

// LUReport holds the stability metrics of one LU factorization.
type LUReport struct {
	// Growth is the element growth factor max|U| / max|A|.
	Growth float64
	// Residual is ||P*A - L*U||_F / ||A||_F (or ||A - L~U~|| for
	// factorizations without a global permutation).
	Residual float64
	// SolveError is ||x - x*||_inf / ||x*||_inf for a solve against a known
	// solution, when measured (zero otherwise).
	SolveError float64
}

// MeasureGEPP factors a copy of a with partial pivoting (the reference
// algorithm) and reports its stability metrics.
func MeasureGEPP(a *matrix.Dense) LUReport {
	lu := a.Clone()
	ipiv := make([]int, min(a.Rows, a.Cols))
	_ = lapack.GETF2(lu, ipiv)
	pa := a.Clone()
	lapack.LASWP(pa, ipiv, 0, len(ipiv))
	return LUMetrics(lu, pa, a)
}

// MeasureCALU factors a copy of a with CALU (tournament pivoting) and
// reports its stability metrics.
func MeasureCALU(a *matrix.Dense, opt core.Options) (LUReport, error) {
	lu := a.Clone()
	res, err := core.CALU(lu, opt)
	if err != nil {
		return LUReport{}, err
	}
	pa := a.Clone()
	lapack.LASWP(pa, res.Ipiv, 0, len(res.Ipiv))
	return LUMetrics(lu, pa, a), nil
}

// MeasureTSLU factors a copy of the panel with standalone TSLU.
func MeasureTSLU(a *matrix.Dense, tr int, tree tslu.Tree) (LUReport, error) {
	lu := a.Clone()
	ipiv, err := tslu.Factor(lu, tr, tree)
	if err != nil {
		return LUReport{}, err
	}
	pa := a.Clone()
	lapack.LASWP(pa, ipiv, 0, len(ipiv))
	return LUMetrics(lu, pa, a), nil
}

// LUMetrics computes growth and residual from an in-place factor, the
// permuted original, and the original.
func LUMetrics(lu, pa, orig *matrix.Dense) LUReport {
	l, u := lapack.ExtractLU(lu)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	diff := 0.0
	for j := 0; j < pa.Cols; j++ {
		x, y := pa.Col(j), prod.Col(j)
		for i := range x {
			d := x[i] - y[i]
			diff += d * d
		}
	}
	return LUReport{
		Growth:   lapack.GrowthFactor(lu, orig),
		Residual: math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300),
	}
}

// SolveError factors a (square) with the given factor-and-solve closure and
// returns the relative infinity-norm error against a known random solution.
func SolveError(a *matrix.Dense, seed int64, solve func(rhs *matrix.Dense) error) float64 {
	n := a.Rows
	xWant := matrix.Random(n, 1, seed)
	rhs := blas.Mul(blas.NoTrans, blas.NoTrans, a, xWant)
	if err := solve(rhs); err != nil {
		return math.Inf(1)
	}
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		num = math.Max(num, math.Abs(rhs.At(i, 0)-xWant.At(i, 0)))
		den = math.Max(den, math.Abs(xWant.At(i, 0)))
	}
	return num / (den + 1e-300)
}

// QRReport holds the stability metrics of one QR factorization.
type QRReport struct {
	// Residual is ||A - Q*R||_F / ||A||_F.
	Residual float64
	// Orthogonality is ||Q^T Q - I||_max.
	Orthogonality float64
}

// MeasureQR evaluates any QR factorization given its explicit thin Q and R.
func MeasureQR(orig, q, r *matrix.Dense) QRReport {
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
	diff := 0.0
	for j := 0; j < orig.Cols; j++ {
		x, y := orig.Col(j), prod.Col(j)
		for i := range x {
			d := x[i] - y[i]
			diff += d * d
		}
	}
	qtq := blas.Mul(blas.Trans, blas.NoTrans, q, q)
	for i := 0; i < qtq.Rows; i++ {
		qtq.Set(i, i, qtq.At(i, i)-1)
	}
	return QRReport{
		Residual:      math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300),
		Orthogonality: qtq.MaxAbs(),
	}
}
