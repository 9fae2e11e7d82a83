// Package blas implements the subset of the BLAS (Basic Linear Algebra
// Subprograms) needed by the LU and QR factorizations in this repository.
//
// All routines operate on column-major storage with an explicit leading
// dimension, mirroring the reference BLAS so that the factorization code
// reads like its LAPACK counterpart. Vector routines take an increment,
// matrix routines take a leading dimension. Routines panic on invalid
// dimensions: these are programming errors in callers, not runtime
// conditions to recover from.
package blas

import (
	"fmt"
	"math"
)

// Idamax returns the index of the element of x with the largest absolute
// value, scanning n elements with stride incX. It returns -1 when n <= 0.
// Ties resolve to the first occurrence, as in the reference BLAS, which the
// pivoting code relies on for determinism. NaN elements never win, except
// that a NaN x[0] is returned as 0.
func Idamax(n int, x []float64, incX int) int {
	if n <= 0 {
		return -1
	}
	if incX <= 0 {
		panic(fmt.Errorf("%w: bad increment %d", ErrShape, incX))
	}
	if incX == 1 && useAsmKernel {
		x = x[:n]
		if x[0] != x[0] {
			return 0
		}
		return idamaxAsm(x)
	}
	best, bestAbs := 0, math.Abs(x[0])
	idx := incX
	for i := 1; i < n; i++ {
		if a := math.Abs(x[idx]); a > bestAbs {
			best, bestAbs = i, a
		}
		idx += incX
	}
	return best
}

// Dscal scales n elements of x by alpha: x = alpha * x.
func Dscal(n int, alpha float64, x []float64, incX int) {
	if n <= 0 {
		return
	}
	if incX <= 0 {
		panic(fmt.Errorf("%w: bad increment %d", ErrShape, incX))
	}
	if incX == 1 {
		x = x[:n]
		if useAsmKernel {
			dscalAsm(alpha, x)
			return
		}
		for i := range x {
			x[i] *= alpha
		}
		return
	}
	for i, idx := 0, 0; i < n; i, idx = i+1, idx+incX {
		x[idx] *= alpha
	}
}

// Daxpy computes y = alpha*x + y over n elements.
func Daxpy(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	if n <= 0 || alpha == 0 {
		return
	}
	if incX <= 0 || incY <= 0 {
		panic(fmt.Errorf("%w: bad increments %d %d", ErrShape, incX, incY))
	}
	if incX == 1 && incY == 1 {
		x = x[:n]
		y = y[:n]
		if useAsmKernel {
			daxpyAsm(alpha, x, y)
			return
		}
		for i, v := range x {
			y[i] += alpha * v
		}
		return
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incX
		iy += incY
	}
}

// Ddot returns the dot product of n elements of x and y.
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	if n <= 0 {
		return 0
	}
	if incX <= 0 || incY <= 0 {
		panic(fmt.Errorf("%w: bad increments %d %d", ErrShape, incX, incY))
	}
	sum := 0.0
	if incX == 1 && incY == 1 {
		x = x[:n]
		y = y[:n]
		if useAsmKernel {
			return ddotAsm(x, y)
		}
		for i, v := range x {
			sum += v * y[i]
		}
		return sum
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		sum += x[ix] * y[iy]
		ix += incX
		iy += incY
	}
	return sum
}

// Dsum returns the plain (signed) sum of the elements of x, like the
// OpenBLAS dsum extension. Unlike the other vector routines it takes a
// contiguous slice rather than n and an increment: its callers, the ABFT
// checksum passes, sum whole columns or their tails.
func Dsum(x []float64) float64 {
	if useAsmKernel {
		return dsumAsm(x)
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum
}

// Damax returns the largest absolute value of the elements of x, like the
// OpenBLAS damax extension, and 0 for an empty x. Unlike Idamax it does
// not skip NaNs: the result is NaN if any element is NaN, and +Inf if any
// is infinite and none is NaN, so one call both checks x for non-finite
// entries (the result is not <= math.MaxFloat64) and measures it. It takes
// a contiguous slice, as Dsum does: its caller, the input scan, reads whole
// columns.
func Damax(x []float64) float64 {
	if useAsmKernel {
		return damaxAsm(x)
	}
	amax := 0.0
	for _, v := range x {
		if a := math.Abs(v); !(a <= amax) {
			if a != a {
				return a
			}
			amax = a
		}
	}
	return amax
}

// Bounds on a plain sum of squares within which Dnrm2 trusts it: below
// ssqMin an element's square may have lost accuracy to gradual underflow
// relative to the total, and above ssqMax a partial sum may have
// overflowed. Inside, every square too small to be a normal number is
// below 2^-122 of the total, so dropping its low bits costs nothing.
const (
	ssqMin = 0x1p-900
	ssqMax = 0x1p900
)

// Dnrm2 returns the Euclidean norm of n elements of x without overflow or
// underflow. The unit-stride assembly path takes the square root of a
// plain sum of squares (one Ddot of x with itself) whenever that sum lies
// in [ssqMin, ssqMax]; anything else, and every Go path, runs the scaled
// LAPACK dlassq loop.
func Dnrm2(n int, x []float64, incX int) float64 {
	if n <= 0 {
		return 0
	}
	if incX <= 0 {
		panic(fmt.Errorf("%w: bad increment %d", ErrShape, incX))
	}
	if incX == 1 && useAsmKernel {
		x = x[:n]
		if ssq := ddotAsm(x, x); ssq >= ssqMin && ssq <= ssqMax {
			return math.Sqrt(ssq)
		}
	}
	scale, ssq := 0.0, 1.0
	idx := 0
	for i := 0; i < n; i++ {
		if v := x[idx]; v != 0 {
			a := math.Abs(v)
			if scale < a {
				ssq = 1 + ssq*(scale/a)*(scale/a)
				scale = a
			} else {
				ssq += (a / scale) * (a / scale)
			}
		}
		idx += incX
	}
	return scale * math.Sqrt(ssq)
}
