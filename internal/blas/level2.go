package blas

import "fmt"

// Transpose selects whether a matrix argument is used as-is or transposed.
type Transpose bool

// Transpose values.
const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

// Side selects whether a triangular factor multiplies from the left or the
// right in Dtrsm/Dtrmm.
type Side int

// Side values.
const (
	Left Side = iota
	Right
)

// Uplo selects the triangle of a triangular matrix argument.
type Uplo int

// Uplo values.
const (
	Upper Uplo = iota
	Lower
)

// Diag states whether a triangular matrix has an implicit unit diagonal.
type Diag int

// Diag values.
const (
	NonUnit Diag = iota
	Unit
)

// Dger performs the rank-1 update A = A + alpha * x * y^T where A is m x n
// with leading dimension lda.
//
// Each column is one Daxpy, so the unit-stride case runs on the assembly
// kernel when the CPU probe enabled it. Without it, the unit-incX path —
// the inner loop of the rgetf2 panel factorization, where this routine is
// on the critical path of every CALU panel — is unrolled over four columns
// so each x element loaded feeds four column updates instead of one.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	if m < 0 || n < 0 || lda < max(1, m) {
		panic(fmt.Errorf("%w: Dger bad dims m=%d n=%d lda=%d", ErrShape, m, n, lda))
	}
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	if incX == 1 && !useAsmKernel {
		xv := x[:m]
		iy := 0
		j := 0
		for ; j+4 <= n; j += 4 {
			y0 := alpha * y[iy]
			y1 := alpha * y[iy+incY]
			y2 := alpha * y[iy+2*incY]
			y3 := alpha * y[iy+3*incY]
			iy += 4 * incY
			a0 := a[(j+0)*lda : (j+0)*lda+m]
			a1 := a[(j+1)*lda : (j+1)*lda+m]
			a2 := a[(j+2)*lda : (j+2)*lda+m]
			a3 := a[(j+3)*lda : (j+3)*lda+m]
			for i, v := range xv {
				a0[i] += v * y0
				a1[i] += v * y1
				a2[i] += v * y2
				a3[i] += v * y3
			}
		}
		for ; j < n; j++ {
			Daxpy(m, alpha*y[iy], xv, 1, a[j*lda:j*lda+m], 1)
			iy += incY
		}
		return
	}
	for j, iy := 0, 0; j < n; j, iy = j+1, iy+incY {
		Daxpy(m, alpha*y[iy], x, incX, a[j*lda:j*lda+m], 1)
	}
}

// Dgemv computes y = alpha*op(A)*x + beta*y for an m x n matrix A. The
// NoTrans product is one Daxpy per column of A and the Trans product one
// Ddot per column, so both run on the level-1 kernels.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	if m < 0 || n < 0 || lda < max(1, m) {
		panic(fmt.Errorf("%w: Dgemv bad dims m=%d n=%d lda=%d", ErrShape, m, n, lda))
	}
	lenY := m
	if trans == Trans {
		lenY = n
	}
	if beta != 1 {
		iy := 0
		for i := 0; i < lenY; i++ {
			if beta == 0 {
				y[iy] = 0
			} else {
				y[iy] *= beta
			}
			iy += incY
		}
	}
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	if trans == NoTrans {
		// y += alpha * A * x, column by column.
		for j, ix := 0, 0; j < n; j, ix = j+1, ix+incX {
			Daxpy(m, alpha*x[ix], a[j*lda:j*lda+m], 1, y, incY)
		}
		return
	}
	// y += alpha * A^T * x: each y[j] is a dot of column j with x.
	for j, iy := 0, 0; j < n; j, iy = j+1, iy+incY {
		y[iy] += alpha * Ddot(m, a[j*lda:j*lda+m], 1, x, incX)
	}
}

// Dtrsv solves op(A)*x = b in place (x overwrites b) for a triangular n x n
// matrix A.
func Dtrsv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	if n < 0 || lda < max(1, n) {
		panic(fmt.Errorf("%w: Dtrsv bad dims n=%d lda=%d", ErrShape, n, lda))
	}
	if n == 0 {
		return
	}
	if incX != 1 {
		panic(fmt.Errorf("%w: Dtrsv requires incX == 1", ErrShape))
	}
	switch {
	case uplo == Lower && trans == NoTrans:
		for i := 0; i < n; i++ {
			sum := x[i]
			for k := 0; k < i; k++ {
				sum -= a[k*lda+i] * x[k]
			}
			if diag == NonUnit {
				sum /= a[i*lda+i]
			}
			x[i] = sum
		}
	case uplo == Upper && trans == NoTrans:
		for i := n - 1; i >= 0; i-- {
			sum := x[i]
			for k := i + 1; k < n; k++ {
				sum -= a[k*lda+i] * x[k]
			}
			if diag == NonUnit {
				sum /= a[i*lda+i]
			}
			x[i] = sum
		}
	case uplo == Lower && trans == Trans:
		for i := n - 1; i >= 0; i-- {
			sum := x[i]
			for k := i + 1; k < n; k++ {
				sum -= a[i*lda+k] * x[k]
			}
			if diag == NonUnit {
				sum /= a[i*lda+i]
			}
			x[i] = sum
		}
	default: // Upper, Trans
		for i := 0; i < n; i++ {
			sum := x[i]
			for k := 0; k < i; k++ {
				sum -= a[i*lda+k] * x[k]
			}
			if diag == NonUnit {
				sum /= a[i*lda+i]
			}
			x[i] = sum
		}
	}
}

// Dtrmv computes x = op(A)*x for a triangular n x n matrix A.
func Dtrmv(uplo Uplo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	if n < 0 || lda < max(1, n) {
		panic(fmt.Errorf("%w: Dtrmv bad dims n=%d lda=%d", ErrShape, n, lda))
	}
	if n == 0 {
		return
	}
	if incX != 1 {
		panic(fmt.Errorf("%w: Dtrmv requires incX == 1", ErrShape))
	}
	switch {
	case uplo == Upper && trans == NoTrans:
		for i := 0; i < n; i++ {
			sum := 0.0
			if diag == NonUnit {
				sum = a[i*lda+i] * x[i]
			} else {
				sum = x[i]
			}
			for k := i + 1; k < n; k++ {
				sum += a[k*lda+i] * x[k]
			}
			x[i] = sum
		}
	case uplo == Lower && trans == NoTrans:
		for i := n - 1; i >= 0; i-- {
			sum := 0.0
			if diag == NonUnit {
				sum = a[i*lda+i] * x[i]
			} else {
				sum = x[i]
			}
			for k := 0; k < i; k++ {
				sum += a[k*lda+i] * x[k]
			}
			x[i] = sum
		}
	case uplo == Upper && trans == Trans:
		for i := n - 1; i >= 0; i-- {
			sum := 0.0
			if diag == NonUnit {
				sum = a[i*lda+i] * x[i]
			} else {
				sum = x[i]
			}
			for k := 0; k < i; k++ {
				sum += a[i*lda+k] * x[k]
			}
			x[i] = sum
		}
	default: // Lower, Trans
		for i := 0; i < n; i++ {
			sum := 0.0
			if diag == NonUnit {
				sum = a[i*lda+i] * x[i]
			} else {
				sum = x[i]
			}
			for k := i + 1; k < n; k++ {
				sum += a[i*lda+k] * x[k]
			}
			x[i] = sum
		}
	}
}
