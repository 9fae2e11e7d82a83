package blas_test

// Randomized differential tests pitting the packed Level 3 kernels against
// the frozen pre-refactor references in internal/baseline, and the level-1
// and level-2 routines against naive loops. Every Level 3 case runs on
// every register tile the host can run, every level-1/2 case on both the
// assembly and the Go loops, with lda/ldb slack or guard cells so
// out-of-bounds writes are caught by whole-slice comparison.

import (
	"fmt"
	"math"
	"slices"
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

// everyTile runs f once per register tile this host can run (generic,
// avx2, avx512), each as a subtest named after its tile.
func everyTile(t *testing.T, f func(t *testing.T)) {
	for _, name := range blas.Tiles() {
		t.Run(name, func(t *testing.T) {
			defer blas.ForceTile(name)()
			f(t)
		})
	}
}

// bothKernels runs f on the Go loops and, when the host has them, on the
// AVX2 level-1 assembly kernels, which every assembly tile shares.
func bothKernels(t *testing.T, f func(t *testing.T)) {
	tiles := blas.Tiles()
	t.Run("generic", func(t *testing.T) {
		defer blas.ForceTile("generic")()
		f(t)
	})
	if len(tiles) > 1 {
		t.Run("asm", func(t *testing.T) {
			defer blas.ForceTile(tiles[len(tiles)-1])()
			f(t)
		})
	}
}

// closeEnough compares with a tolerance scaled to the accumulation depth.
func closeEnough(got, want, scale float64) bool {
	return math.Abs(got-want) <= 1e-12*(scale+math.Abs(want))
}

// gemmSizes are the differential sweep dimensions: 1..5 and both sides of
// one and two register tiles in each direction (MR±1, 2·MR±1, NR±1 and
// 2·NR±1), both sides of the in-place-A limit of 64 on n and k, and sizes
// spanning the MC/KC/NC cache-block boundaries.
var gemmSizes = func() []int {
	sizes := []int{1, 2, 3, 4, 5}
	for _, t := range []int{blas.TestMR, blas.TestNR, 2 * blas.TestMR, 2 * blas.TestNR} {
		sizes = append(sizes, t-1, t, t+1)
	}
	sizes = append(sizes, 31, 64, 65, 100, 129)
	slices.Sort(sizes)
	return slices.Compact(sizes)
}()

// gemmShape is one Dgemm call: transposes and m x n x k.
type gemmShape struct {
	transA, transB blas.Transpose
	m, n, k        int
}

// gemmTall are the tall-leaf update shapes appended to the sweep: an
// RGETF2-sized A22 -= L21*U12 on a 2500-row leaf, and NoTrans-A updates
// at the widest and deepest in-place shape and one past it, with fringe
// rows below the last 8-row strip.
var gemmTall = []gemmShape{
	{blas.NoTrans, blas.NoTrans, 2500, 50, 50},
	{blas.NoTrans, blas.NoTrans, 2503, 64, 64},
	{blas.NoTrans, blas.Trans, 2500, 32, 65},
	{blas.NoTrans, blas.Trans, 2501, 65, 13},
}

// gemmCases subsamples the gemmSizes cube for every transpose pair —
// diagonal-ish cases plus all small-fringe triples keep the sweep fast
// while still crossing every strip boundary — and appends gemmTall.
func gemmCases() []gemmShape {
	var cs []gemmShape
	i := 0
	for _, transA := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		for _, transB := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			for _, m := range gemmSizes {
				for _, n := range gemmSizes {
					for _, k := range gemmSizes {
						i++
						if (m > 17 || n > 17 || k > 17) && (m+n+k+i)%3 != 0 {
							continue
						}
						cs = append(cs, gemmShape{transA, transB, m, n, k})
					}
				}
			}
		}
	}
	return append(cs, gemmTall...)
}

// gemmCall is one differential Dgemm case: its shape and operands.
type gemmCall struct {
	gemmShape
	alpha, beta   float64
	a, b, c       []float64
	lda, ldb, ldc int
}

// newGemmCall draws case caseIdx's operands: alpha and beta cycle through
// {1, -0.7, 2.3} and {0, 1, -1.3}, and every leading dimension has 0-3
// rows of slack.
func newGemmCall(s gemmShape, caseIdx int, r *lcg) gemmCall {
	g := gemmCall{gemmShape: s, alpha: []float64{1, -0.7, 2.3}[caseIdx%3], beta: []float64{0, 1, -1.3}[caseIdx%3]}
	ldSlack := caseIdx % 4
	rowA, colA := s.m, s.k
	if s.transA == blas.Trans {
		rowA, colA = s.k, s.m
	}
	rowB, colB := s.k, s.n
	if s.transB == blas.Trans {
		rowB, colB = s.n, s.k
	}
	g.lda, g.ldb, g.ldc = rowA+ldSlack, rowB+ldSlack, s.m+ldSlack
	g.a = randSlice(g.lda*colA, r)
	g.b = randSlice(g.ldb*colB, r)
	g.c = randSlice(g.ldc*s.n, r)
	return g
}

// run returns C after Dgemm on a copy of g's C.
func (g gemmCall) run() []float64 {
	cm := slices.Clone(g.c)
	blas.Dgemm(g.transA, g.transB, g.m, g.n, g.k, g.alpha, g.a, g.lda, g.b, g.ldb, g.beta, cm, g.ldc)
	return cm
}

func TestDgemmDifferential(t *testing.T) {
	everyTile(t, func(t *testing.T) {
		r := lcg(1)
		for caseIdx, s := range gemmCases() {
			g := newGemmCall(s, caseIdx, &r)
			cm := g.run()
			want := slices.Clone(g.c)
			baseline.RefGemm(g.transA, g.transB, g.m, g.n, g.k, g.alpha, g.a, g.lda, g.b, g.ldb, g.beta, want, g.ldc)
			for i := range cm {
				if !closeEnough(cm[i], want[i], float64(g.k)) {
					t.Fatalf("Dgemm transA=%v transB=%v m=%d n=%d k=%d lda=%d alpha=%g beta=%g: c[%d]=%g want %g",
						g.transA, g.transB, g.m, g.n, g.k, g.lda, g.alpha, g.beta, i, cm[i], want[i])
				}
			}
		}
	})
}

// triSizes cross the recursive drivers' order-8 base and their split
// points (multiples of 8) on both sides, the order-128 limit of the Left
// Dtrmm's and the Unit Left Dtrsm's packed passes on both sides, and the
// narrow right-hand sides (n <= 32) whose off-diagonal updates read A in
// place.
var triSizes = []int{1, 2, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33, 100, 127, 128, 129, 130}

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
// sweeps: CALU's L and U blocks, the U12 solves of RGETF2 on a 100-wide
// panel (its 48|52 split and the 24|24 split of the left half), the
// Vᵀ-triangle product of Larfb, and the same product on GEQRF's first
// trailing update of a 768² matrix, wider than the packed pass's column
// block of B.
var triProduction = []triShape{
	{"calu-L", blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 2500, 100},
	{"calu-U", blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 100, 100},
	{"rgetf2-u12", blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 24, 24},
	{"rgetf2-u12", blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 48, 52},
	{"larfb-trmm", blas.Left, blas.Lower, blas.Trans, blas.Unit, 100, 100},
	{"larfb-wide", blas.Left, blas.Lower, blas.Trans, blas.Unit, 100, 700},
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
	everyTile(t, func(t *testing.T) {
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

// TestDtrsmLeftUnitResidual checks the Unit Left Dtrsm on the triangles
// the factorizations give it: unit lower triangles whose off-diagonal
// entries are at most 1 in magnitude, as in the L of partial pivoting,
// including the all-(-1) one, whose inverse has the largest entries of
// that class (2^(i-j-1)). Each is stored as L (Lower) and as Lᵀ (Upper)
// and solved with either transpose, so every Unit Left variant runs, at
// orders 1-17 (the order-8 base and the pass from 9 on), 100, 127 and 128,
// against 13 right-hand sides (a full 12-column strip and a fringe one),
// on every tile. The stored diagonal holds NaN, which a Unit solve must
// not read. The recursion's solution on the same inputs is the NonUnit
// Dtrsm of a copy whose stored diagonal is 1: it takes the steps the Unit
// recursion took, since dividing by 1 is exact.
//
// The bound: for each triangle and right-hand side, the largest scaled
// residual ‖op(A)X - B‖∞ / (‖op(A)‖∞·‖X‖∞·m·ε) of the four variants must be
// at most residualFactor times the recursion's largest. The recursion's
// own residual on the all-(-1) triangle ranges from 1e-11 to 1e-5 across
// the variants (the storage decides whether its Dgemm updates read A in
// place or packed), so one variant's ratio would measure its rounding
// luck; the largest of the four does not.
func TestDtrsmLeftUnitResidual(t *testing.T) {
	const residualFactor = 8
	const n = 13
	orders := []int{100, 127, 128}
	for m := 1; m <= 17; m++ {
		orders = append(orders, m)
	}
	everyTile(t, func(t *testing.T) {
		r := lcg(10)
		for _, m := range orders {
			for _, allNeg := range []bool{false, true} {
				l := make([]float64, m*m) // L(i, k) at l[k*m+i]
				for k := 0; k < m; k++ {
					l[k*m+k] = 1
					for i := k + 1; i < m; i++ {
						l[k*m+i] = -1
						if !allNeg {
							l[k*m+i] = r.next()
						}
					}
				}
				lda := m + 1
				b := randSlice(m*n, &r)
				var pass, rec float64 // largest scaled residuals
				for _, uplo := range []blas.Uplo{blas.Lower, blas.Upper} {
					for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
						a := make([]float64, lda*m)
						for k := 0; k < m; k++ {
							for i := 0; i < m; i++ {
								v := l[k*m+i] // store L, or Lᵀ for Upper
								if uplo == blas.Upper {
									v = l[i*m+k]
								}
								a[k*lda+i] = v
							}
							a[k*lda+k] = math.NaN()
						}
						unit := slices.Clone(a)
						for k := 0; k < m; k++ {
							unit[k*lda+k] = 1
						}
						opA := func(i, k int) float64 { // L, or Lᵀ for an upper op(A)
							if (uplo == blas.Lower) != (trans == blas.NoTrans) {
								i, k = k, i
							}
							return l[k*m+i]
						}
						x, y := slices.Clone(b), slices.Clone(b)
						blas.Dtrsm(blas.Left, uplo, trans, blas.Unit, m, n, 1, a, lda, x, m)
						blas.Dtrsm(blas.Left, uplo, trans, blas.NonUnit, m, n, 1, unit, lda, y, m)
						pass = max(pass, scaledResidual(m, n, opA, x, b))
						rec = max(rec, scaledResidual(m, n, opA, y, b))
					}
				}
				if !(pass <= residualFactor*rec) {
					t.Fatalf("m=%d all(-1)=%v: largest scaled residual %.3g, the recursion's %.3g, want at most %d times it",
						m, allNeg, pass, rec, residualFactor)
				}
			}
		}
	})
}

// scaledResidual returns ‖op(A)X - B‖∞ / (‖op(A)‖∞·‖X‖∞·m·ε) for the
// m x m op(A), given by element, and m x n X and B (leading dimension m).
// Each residual entry is summed with the error of every product and sum
// carried along (compensated, with math.FMA), so that its own rounding
// stays far below the solve's.
func scaledResidual(m, n int, opA func(i, k int) float64, x, b []float64) float64 {
	var normA, normX, normR float64
	for i := 0; i < m; i++ {
		var rowA, rowX, rowR float64
		for k := 0; k < m; k++ {
			rowA += math.Abs(opA(i, k))
		}
		for j := 0; j < n; j++ {
			rowX += math.Abs(x[j*m+i])
			s, c := -b[j*m+i], 0.0
			for k := 0; k < m; k++ {
				p := opA(i, k) * x[j*m+k]
				pe := math.FMA(opA(i, k), x[j*m+k], -p)
				t := s + p
				z := t - s
				c += pe + (s - (t - z)) + (p - z)
				s = t
			}
			rowR += math.Abs(s + c)
		}
		normA, normX, normR = max(normA, rowA), max(normX, rowX), max(normR, rowR)
	}
	return normR / (normA * normX * float64(m) * 0x1p-52)
}

func TestDtrmmDifferential(t *testing.T) {
	everyTile(t, func(t *testing.T) {
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
// triangle of the side's order and a right-hand side, with 0-3 rows of
// leading-dimension slack and alpha cycling through {1, -0.6, 1.8}. Every
// entry of A that op(A) does not reference holds NaN: the other triangle,
// the slack rows and, for Unit, the stored diagonal. A kernel that reads
// one of them, even to multiply it by zero, puts NaN into B.
func triOperands(c triShape, caseIdx int, r *lcg) (a []float64, lda int, b []float64, ldb int, alpha float64) {
	na := c.order()
	ldSlack := caseIdx % 4
	lda = na + ldSlack
	ldb = c.m + ldSlack
	alpha = []float64{1, -0.6, 1.8}[caseIdx%3]
	a = wellConditioned(na, lda, r)
	for j := 0; j < na; j++ {
		for i := 0; i < lda; i++ {
			referenced := i < na && (i < j && c.uplo == blas.Upper || i > j && c.uplo == blas.Lower ||
				i == j && c.diag == blas.NonUnit)
			if !referenced {
				a[j*lda+i] = math.NaN()
			}
		}
	}
	return a, lda, randSlice(ldb*c.n, r), ldb, alpha
}

// vecLengths are the level-1/2 sweep lengths: every length 0..33 (each
// remainder of the 16- and 4-wide assembly loops, and every scalar tail)
// plus the tall leaf's 2500 rows.
var vecLengths = func() []int {
	ls := make([]int, 0, 35)
	for n := 0; n <= 33; n++ {
		ls = append(ls, n)
	}
	return append(ls, 2500)
}()

// guarded is a vector of n elements at offset off (0..3, varying its
// alignment) inside a buffer whose other cells are random guard values.
// Comparing the whole buffer against a reference catches any write outside
// the n elements.
type guarded struct {
	buf []float64
	off int
}

const guardCells = 8

func newGuarded(n, off int, r *lcg) guarded {
	return guarded{buf: randSlice(off+n+guardCells, r), off: off}
}

// vec returns the vector; its capacity runs into the trailing guards so an
// overrun reaches them instead of panicking.
func (g guarded) vec() []float64 { return g.buf[g.off:] }

func (g guarded) clone() guarded { return guarded{append([]float64(nil), g.buf...), g.off} }

// check fails t when any cell of g differs from want's by more than the
// depth-scaled tolerance; guard cells must match exactly.
func (g guarded) check(t *testing.T, want guarded, scale float64, what string) {
	t.Helper()
	for i := range g.buf {
		if !closeEnough(g.buf[i], want.buf[i], scale) {
			t.Fatalf("%s: cell %d (vector starts at %d) = %g, want %g", what, i, g.off, g.buf[i], want.buf[i])
		}
	}
}

// TestDgerDifferential pits Dger (a 4-column unrolled Go loop, or one
// Daxpy per column on the assembly path) against a naive rank-1 loop:
// small shapes across the unroll tail, then one dimension from vecLengths
// and the other 3. y is unit or strided, every slice offset 0-3 is used,
// lda has 0-3 rows of slack and guard cells surround A.
func TestDgerDifferential(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(4)
		dims := [][2]int{{1, 1}, {3, 4}, {7, 5}, {8, 8}, {17, 13}, {100, 31}, {129, 65}}
		for _, long := range vecLengths {
			dims = append(dims, [2]int{long, 3}, [2]int{3, long})
		}
		for caseIdx, d := range dims {
			m, n := d[0], d[1]
			lda := max(1, m+caseIdx%4)
			alpha := []float64{1, -0.8, 2.1}[caseIdx%3]
			for _, incY := range []int{1, 2} {
				for off := 0; off < 4; off++ {
					a := newGuarded(lda*n, off, &r)
					x := newGuarded(m, (off+1)%4, &r)
					y := newGuarded(n*incY, (off+2)%4, &r)
					want := a.clone()
					for j := 0; j < n; j++ {
						for i := 0; i < m; i++ {
							want.vec()[j*lda+i] += alpha * x.vec()[i] * y.vec()[j*incY]
						}
					}
					blas.Dger(m, n, alpha, x.vec(), 1, y.vec(), incY, a.vec(), lda)
					a.check(t, want, 1, fmt.Sprintf("Dger m=%d n=%d lda=%d incY=%d off=%d", m, n, lda, incY, off))
				}
			}
		}
	})
}

func TestLevel1Differential(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(5)
		for _, n := range vecLengths {
			for off := 0; off < 4; off++ {
				what := func(name string) string { return fmt.Sprintf("%s n=%d off=%d", name, n, off) }
				x := newGuarded(n, (off+1)%4, &r)
				y := newGuarded(n, off, &r)

				want := 0.0
				for i := 0; i < n; i++ {
					want += x.vec()[i] * y.vec()[i]
				}
				if got := blas.Ddot(n, x.vec(), 1, y.vec(), 1); !closeEnough(got, want, float64(n)) {
					t.Fatalf("%s = %g, want %g", what("Ddot"), got, want)
				}

				want = 0
				for i := 0; i < n; i++ {
					want += x.vec()[i]
				}
				if got := blas.Dsum(x.vec()[:n]); !closeEnough(got, want, float64(n)) {
					t.Fatalf("%s = %g, want %g", what("Dsum"), got, want)
				}

				if got, want := blas.Damax(x.vec()[:n]), refDamax(x.vec()[:n]); !sameFloat(got, want) {
					t.Fatalf("%s = %g, want %g", what("Damax"), got, want)
				}

				wantY := y.clone()
				for i := 0; i < n; i++ {
					wantY.vec()[i] += -0.7 * x.vec()[i]
				}
				blas.Daxpy(n, -0.7, x.vec(), 1, y.vec(), 1)
				y.check(t, wantY, 1, what("Daxpy"))

				wantX := x.clone()
				for i := 0; i < n; i++ {
					wantX.vec()[i] *= 1.3
				}
				blas.Dscal(n, 1.3, x.vec(), 1)
				x.check(t, wantX, 1, what("Dscal"))

				if n > 0 {
					if got, want := blas.Idamax(n, x.vec(), 1), refIdamax(x.vec()[:n]); got != want {
						t.Fatalf("%s = %d, want %d", what("Idamax"), got, want)
					}
				}
				if got, want := blas.Dnrm2(n, x.vec(), 1), refNrm2(x.vec()[:n]); !closeEnough(got, want, 1) {
					t.Fatalf("%s = %g, want %g", what("Dnrm2"), got, want)
				}
			}
		}
	})
}

// refIdamax is the reference BLAS scan: the first index of the largest
// magnitude.
func refIdamax(x []float64) int {
	best := 0
	for i, v := range x {
		if math.Abs(v) > math.Abs(x[best]) {
			best = i
		}
	}
	return best
}

// refDamax is max|x_i| by Damax's contract: NaN if any element is NaN,
// otherwise the largest magnitude, and 0 for an empty x.
func refDamax(x []float64) float64 {
	amax := 0.0
	for _, v := range x {
		if math.IsNaN(v) {
			return math.NaN()
		}
		amax = math.Max(amax, math.Abs(v))
	}
	return amax
}

// sameFloat reports whether got and want have the same bits, counting any
// two NaNs as equal.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// refNrm2 is the LAPACK dlassq loop.
func refNrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// TestIdamaxTies plants the maximum magnitude at several positions, with
// either sign, and a NaN just before the first: the first planted position
// must win on every length.
func TestIdamaxTies(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(6)
		for _, n := range vecLengths {
			for first := 0; first < n; first += 1 + n/7 {
				x := randSlice(n, &r)
				x[first] = -4
				for i := first + 1 + (first % 3); i < n; i += 5 {
					x[i] = 4 * float64(1-2*(i%2))
				}
				if first > 1 { // a NaN x[0] would win by definition
					x[first-1] = math.NaN()
				}
				if got := blas.Idamax(n, x, 1); got != first {
					t.Fatalf("Idamax n=%d: %d, want the first maximum at %d", n, got, first)
				}
			}
		}
		if got := blas.Idamax(3, []float64{math.NaN(), 5, 7}, 1); got != 0 {
			t.Fatalf("Idamax with NaN x[0] = %d, want 0", got)
		}
		if got := blas.Idamax(5, []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}, 1); got != 0 {
			t.Fatalf("Idamax of all NaN = %d, want 0", got)
		}
	})
}

// TestDamaxPlanted plants each value Damax's contract singles out at every
// position of every length 0..33 (every remainder of the 16- and 4-wide
// loops and every scalar tail) and at several positions of the tall leaf's
// 2500 rows. The large values and the non-finite ones sit among random
// entries in [-1, 1); the tiny ones among zeros of either sign, so they
// must win. A NaN is also planted next to an infinity, on either side.
func TestDamaxPlanted(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	planted := []struct {
		v, want float64
		zeros   bool // background of signed zeros rather than random entries
	}{
		{math.NaN(), math.NaN(), false},
		{math.Inf(1), math.Inf(1), false},
		{math.Inf(-1), math.Inf(1), false},
		{math.MaxFloat64, math.MaxFloat64, false},
		{-math.MaxFloat64, math.MaxFloat64, false},
		{math.Copysign(0, -1), 0, true},
		{tiny, tiny, true},
		{-tiny, tiny, true},
	}
	bothKernels(t, func(t *testing.T) {
		r := lcg(9)
		if got := blas.Damax(nil); !sameFloat(got, 0) {
			t.Fatalf("Damax(nil) = %g, want 0", got)
		}
		for _, n := range vecLengths {
			positions := []int{0, 3, 16, n / 2, n - 17, n - 4, n - 1}
			if n <= 33 {
				positions = positions[:0]
				for p := 0; p < n; p++ {
					positions = append(positions, p)
				}
			}
			for _, p := range positions {
				for _, pl := range planted {
					x := randSlice(n, &r)
					if pl.zeros {
						for i, v := range x {
							x[i] = math.Copysign(0, v)
						}
					}
					x[p] = pl.v
					if got := blas.Damax(x); !sameFloat(got, pl.want) {
						t.Fatalf("Damax n=%d with %g at %d = %g, want %g", n, pl.v, p, got, pl.want)
					}
				}
				if n < 2 {
					continue
				}
				for _, q := range []int{(p + 1) % n, (p + n - 1) % n} {
					x := randSlice(n, &r)
					x[p], x[q] = math.Inf(1-2*(q%2)), math.NaN()
					if got := blas.Damax(x); !math.IsNaN(got) {
						t.Fatalf("Damax n=%d with Inf at %d and NaN at %d = %g, want NaN", n, p, q, got)
					}
				}
			}
		}
	})
}

// TestDnrm2Scales pits Dnrm2 against the dlassq loop where a plain sum of
// squares would overflow or underflow: 1e+-300 scales, subnormals, and
// vectors mixing magnitudes that are far apart.
func TestDnrm2Scales(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(7)
		scales := []float64{1e300, 1e-300, 5e-324, 1e-310, 1e150, 1e-150, 1}
		for _, n := range vecLengths {
			for _, s := range scales {
				x := randSlice(n, &r)
				for i := range x {
					x[i] *= s
				}
				if got, want := blas.Dnrm2(n, x, 1), refNrm2(x); math.Abs(got-want) > 1e-13*want {
					t.Fatalf("Dnrm2 n=%d scale=%g = %g, want %g", n, s, got, want)
				}
			}
			x := randSlice(n, &r)
			for i := range x {
				x[i] *= scales[i%len(scales)]
			}
			if got, want := blas.Dnrm2(n, x, 1), refNrm2(x); math.Abs(got-want) > 1e-13*want {
				t.Fatalf("Dnrm2 n=%d mixed scales = %g, want %g", n, got, want)
			}
		}
	})
}

// TestDgemvDifferential runs Dgemv (both transposes) with one dimension
// from vecLengths and the other small, at every slice offset, with
// lda = m+3 and guard cells around every output.
func TestDgemvDifferential(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(8)
		for _, long := range vecLengths {
			for _, dims := range [][2]int{{long, 3}, {3, long}} {
				m, n := dims[0], dims[1]
				lda := m + 3
				for off := 0; off < 4; off++ {
					what := func(name string) string { return fmt.Sprintf("%s m=%d n=%d off=%d", name, m, n, off) }
					a := newGuarded(lda*n, off, &r)
					xm, xn := newGuarded(m, (off+1)%4, &r), newGuarded(n, (off+2)%4, &r)
					ym, yn := newGuarded(m, off, &r), newGuarded(n, (off+3)%4, &r)
					av := a.vec()

					want := ym.clone()
					for i := 0; i < m; i++ {
						s := 0.0
						for j := 0; j < n; j++ {
							s += av[j*lda+i] * xn.vec()[j]
						}
						want.vec()[i] = 0.5*want.vec()[i] + 1.5*s
					}
					blas.Dgemv(blas.NoTrans, m, n, 1.5, av, lda, xn.vec(), 1, 0.5, ym.vec(), 1)
					ym.check(t, want, float64(n), what("Dgemv NoTrans"))

					want = yn.clone()
					for j := 0; j < n; j++ {
						s := 0.0
						for i := 0; i < m; i++ {
							s += av[j*lda+i] * xm.vec()[i]
						}
						want.vec()[j] += -0.9 * s
					}
					blas.Dgemv(blas.Trans, m, n, -0.9, av, lda, xm.vec(), 1, 1, yn.vec(), 1)
					yn.check(t, want, float64(m), what("Dgemv Trans"))
				}
			}
		}
	})
}
