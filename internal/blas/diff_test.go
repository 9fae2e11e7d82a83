package blas_test

// Randomized differential tests pitting the packed Level 3 kernels (and the
// unrolled Dger) against the frozen pre-refactor references in
// internal/baseline. Every case runs on both microkernel paths (assembly
// when the host supports it, and the forced-generic Go kernel), with
// lda/ldb slack so out-of-bounds writes into the padding rows are caught by
// whole-slice comparison.

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/blas"
)

// lcg is a tiny deterministic generator so failures reproduce exactly.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	// Uniform in [-1, 1).
	return float64(int64(*r>>11))/float64(1<<52) - 1
}

func randSlice(n int, r *lcg) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.next()
	}
	return s
}

// bothKernels runs f once per microkernel path available on this host.
func bothKernels(t *testing.T, f func(t *testing.T)) {
	t.Run("generic", func(t *testing.T) {
		defer blas.ForceGenericKernel(true)()
		f(t)
	})
	if blas.AsmKernelAvailable() {
		t.Run("asm", func(t *testing.T) {
			defer blas.ForceGenericKernel(false)()
			f(t)
		})
	}
}

// closeEnough compares with a tolerance scaled to the accumulation depth.
func closeEnough(got, want, scale float64) bool {
	return math.Abs(got-want) <= 1e-12*(scale+math.Abs(want))
}

// gemmSizes are the differential sweep dimensions: every fringe size the
// issue calls out (1..17 covers MR±1 and NR±1 for the 8x4 tile) plus sizes
// spanning the MC/KC/NC cache-block boundaries.
var gemmSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 31, 100, 129}

func TestDgemmDifferential(t *testing.T) {
	alphas := []float64{1, -0.7, 2.3}
	betas := []float64{0, 1, -1.3}
	bothKernels(t, func(t *testing.T) {
		r := lcg(1)
		caseIdx := 0
		for _, transA := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			for _, transB := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, m := range gemmSizes {
					for _, n := range gemmSizes {
						for _, k := range gemmSizes {
							// Subsample the cube: diagonal-ish cases plus all
							// small-fringe triples keep the sweep fast while
							// still crossing every strip boundary.
							if m > 17 || n > 17 || k > 17 {
								if (m+n+k+caseIdx)%3 != 0 {
									caseIdx++
									continue
								}
							}
							caseIdx++
							alpha := alphas[caseIdx%len(alphas)]
							beta := betas[caseIdx%len(betas)]
							ldSlack := caseIdx % 3 // exercise lda > rows
							rowA, colA := m, k
							if transA == blas.Trans {
								rowA, colA = k, m
							}
							rowB, colB := k, n
							if transB == blas.Trans {
								rowB, colB = n, k
							}
							lda := rowA + ldSlack
							ldb := rowB + ldSlack
							ldc := m + ldSlack
							a := randSlice(lda*colA, &r)
							b := randSlice(ldb*colB, &r)
							c := randSlice(ldc*n, &r)
							want := append([]float64(nil), c...)
							blas.Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
							baseline.RefGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
							for i := range c {
								if !closeEnough(c[i], want[i], float64(k)) {
									t.Fatalf("Dgemm transA=%v transB=%v m=%d n=%d k=%d lda=%d alpha=%g beta=%g: c[%d]=%g want %g",
										transA, transB, m, n, k, lda, alpha, beta, i, c[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	})
}

// triSizes cross the recursive drivers' order-8 base and their split
// points (multiples of 8) on both sides.
var triSizes = []int{1, 2, 5, 7, 8, 9, 15, 16, 17, 33, 100, 130}

// triShape is one triangular call the factorizations issue: side, uplo,
// trans and diag fixed, m x n right-hand side.
type triShape struct {
	name  string
	side  blas.Side
	uplo  blas.Uplo
	trans blas.Transpose
	diag  blas.Diag
	m, n  int
}

// triProduction are the task-body shapes appended to the differential
// sweeps: CALU's L and U blocks and the Vᵀ-triangle product of Larfb.
var triProduction = []triShape{
	{"calu-L", blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 2500, 100},
	{"calu-U", blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 100, 100},
	{"larfb-trmm", blas.Left, blas.Lower, blas.Trans, blas.Unit, 100, 100},
}

// order is the order of the triangle: m on the Left, n on the Right.
func (c triShape) order() int {
	if c.side == blas.Right {
		return c.n
	}
	return c.m
}

// triCases lists every differential case: the full side/uplo/trans/diag
// sweep over triSizes (skipping pairs where both sides are large, to keep
// it fast), followed by the production shapes.
func triCases() []triShape {
	var cs []triShape
	for _, side := range []blas.Side{blas.Left, blas.Right} {
		for _, uplo := range []blas.Uplo{blas.Upper, blas.Lower} {
			for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, diag := range []blas.Diag{blas.NonUnit, blas.Unit} {
					for _, m := range triSizes {
						for _, n := range triSizes {
							if m > 65 && n > 65 {
								continue
							}
							cs = append(cs, triShape{"sweep", side, uplo, trans, diag, m, n})
						}
					}
				}
			}
		}
	}
	return append(cs, triProduction...)
}

// wellConditioned builds a random na x na triangle-bearing matrix whose
// solves stay differentially comparable: off-diagonals are scaled by 1/na
// so Unit-diag solves grow at most like (1+1/na)^na ~ e, and the stored
// diagonal is shifted away from zero for the NonUnit cases.
func wellConditioned(na, lda int, r *lcg) []float64 {
	a := randSlice(lda*na, r)
	scale := 1 / float64(na)
	for i := range a {
		a[i] *= scale
	}
	for i := 0; i < na; i++ {
		a[i*lda+i] += 2
	}
	return a
}

func TestDtrsmDifferential(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(2)
		for caseIdx, c := range triCases() {
			a, lda, b, ldb, alpha := triOperands(c, caseIdx+1, &r)
			want := append([]float64(nil), b...)
			blas.Dtrsm(c.side, c.uplo, c.trans, c.diag, c.m, c.n, alpha, a, lda, b, ldb)
			baseline.RefTrsm(c.side, c.uplo, c.trans, c.diag, c.m, c.n, alpha, a, lda, want, ldb)
			for i := range b {
				if !closeEnough(b[i], want[i], float64(c.order())) {
					t.Fatalf("Dtrsm %s side=%v uplo=%v trans=%v diag=%v m=%d n=%d lda=%d alpha=%g: b[%d]=%g want %g",
						c.name, c.side, c.uplo, c.trans, c.diag, c.m, c.n, lda, alpha, i, b[i], want[i])
				}
			}
		}
	})
}

func TestDtrmmDifferential(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(3)
		for caseIdx, c := range triCases() {
			a, lda, b, ldb, alpha := triOperands(c, caseIdx+1, &r)
			want := append([]float64(nil), b...)
			blas.Dtrmm(c.side, c.uplo, c.trans, c.diag, c.m, c.n, alpha, a, lda, b, ldb)
			baseline.RefTrmm(c.side, c.uplo, c.trans, c.diag, c.m, c.n, alpha, a, lda, want, ldb)
			for i := range b {
				if !closeEnough(b[i], want[i], float64(c.order())) {
					t.Fatalf("Dtrmm %s side=%v uplo=%v trans=%v diag=%v m=%d n=%d lda=%d alpha=%g: b[%d]=%g want %g",
						c.name, c.side, c.uplo, c.trans, c.diag, c.m, c.n, lda, alpha, i, b[i], want[i])
				}
			}
		}
	})
}

// triOperands draws one differential case's operands: a well-conditioned
// triangle of the side's order and a right-hand side, with 0-2 rows of
// leading-dimension slack and alpha cycling through {1, -0.6, 1.8}.
func triOperands(c triShape, caseIdx int, r *lcg) (a []float64, lda int, b []float64, ldb int, alpha float64) {
	na := c.order()
	ldSlack := caseIdx % 3
	lda = na + ldSlack
	ldb = c.m + ldSlack
	alpha = []float64{1, -0.6, 1.8}[caseIdx%3]
	return wellConditioned(na, lda, r), lda, randSlice(ldb*c.n, r), ldb, alpha
}

// TestDgerDifferential pits the 4-column unrolled Dger against a naive
// rank-1 loop, covering the unroll tail and strided y.
func TestDgerDifferential(t *testing.T) {
	r := lcg(4)
	for caseIdx, dims := range [][2]int{{1, 1}, {3, 4}, {7, 5}, {8, 8}, {17, 13}, {100, 31}, {129, 65}} {
		m, n := dims[0], dims[1]
		for _, incY := range []int{1, 2} {
			lda := m + caseIdx%3
			alpha := []float64{1, -0.8, 2.1}[caseIdx%3]
			x := randSlice(m, &r)
			y := randSlice(n*incY, &r)
			a := randSlice(lda*n, &r)
			want := append([]float64(nil), a...)
			blas.Dger(m, n, alpha, x, 1, y, incY, a, lda)
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					want[j*lda+i] += alpha * x[i] * y[j*incY]
				}
			}
			for i := range a {
				if !closeEnough(a[i], want[i], 1) {
					t.Fatalf("Dger m=%d n=%d incY=%d alpha=%g: a[%d]=%g want %g", m, n, incY, alpha, i, a[i], want[i])
				}
			}
		}
	}
}
