package lapack

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// luResidual computes ||P*A - L*U||_F / ||A||_F for an in-place factor.
func luResidual(t *testing.T, lu *matrix.Dense, ipiv []int, orig *matrix.Dense) float64 {
	t.Helper()
	l, u := ExtractLU(lu)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	pa := orig.Clone()
	LASWP(pa, ipiv, 0, len(ipiv))
	diff := 0.0
	for j := 0; j < pa.Cols; j++ {
		a, b := pa.Col(j), prod.Col(j)
		for i := range a {
			d := a[i] - b[i]
			diff += d * d
		}
	}
	return math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300)
}

func checkLU(t *testing.T, name string, factor func(a *matrix.Dense, ipiv []int) error, m, n int, seed int64) {
	t.Helper()
	orig := matrix.Random(m, n, seed)
	a := orig.Clone()
	ipiv := make([]int, min(m, n))
	if err := factor(a, ipiv); err != nil {
		t.Fatalf("%s %dx%d: %v", name, m, n, err)
	}
	if res := luResidual(t, a, ipiv, orig); res > 1e-13*float64(max(m, n)) {
		t.Errorf("%s %dx%d residual %g", name, m, n, res)
	}
	// ipiv must be within range and >= k.
	for k, p := range ipiv {
		if p < k || p >= m {
			t.Fatalf("%s: ipiv[%d] = %d out of range", name, k, p)
		}
	}
}

func TestGETF2Shapes(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {5, 5}, {10, 3}, {3, 10}, {40, 40}, {64, 8}, {200, 13}} {
		checkLU(t, "GETF2", GETF2, dims[0], dims[1], int64(dims[0]*100+dims[1]))
	}
}

func TestRGETF2Shapes(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {10, 3}, {3, 10}, {40, 40}, {64, 8}, {200, 13}, {127, 31}} {
		checkLU(t, "RGETF2", RGETF2, dims[0], dims[1], int64(dims[0]*100+dims[1]))
	}
}

func TestGETRFShapes(t *testing.T) {
	for _, nb := range []int{1, 3, 8, 32} {
		for _, dims := range [][2]int{{5, 5}, {33, 33}, {50, 20}, {20, 50}, {100, 100}} {
			nb := nb
			checkLU(t, "GETRF", func(a *matrix.Dense, ipiv []int) error {
				return GETRF(a, ipiv, nb)
			}, dims[0], dims[1], int64(nb*1000+dims[0]))
		}
	}
}

func TestRGETF2MatchesGETF2Exactly(t *testing.T) {
	// The recursive algorithm must select identical pivots and produce an
	// identical factor (same flop reordering is allowed to give tiny
	// floating-point differences, but pivots must agree).
	// The tall widths straddle the width-8 recursion base and its splits.
	for _, dims := range [][2]int{{30, 30}, {64, 16}, {17, 17}, {500, 7}, {500, 8}, {500, 9}, {500, 17}} {
		orig := matrix.Random(dims[0], dims[1], 99)
		a1, a2 := orig.Clone(), orig.Clone()
		k := min(dims[0], dims[1])
		p1, p2 := make([]int, k), make([]int, k)
		if err := GETF2(a1, p1); err != nil {
			t.Fatal(err)
		}
		if err := RGETF2(a2, p2); err != nil {
			t.Fatal(err)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%v: pivot %d differs: %d vs %d", dims, i, p1[i], p2[i])
			}
		}
		if !a1.EqualApprox(a2, 1e-11) {
			t.Fatalf("%v: factors differ", dims)
		}
	}
}

func TestGETF2PartialPivotingBoundsL(t *testing.T) {
	// With partial pivoting every multiplier |L(i,j)| <= 1.
	a := matrix.Random(50, 50, 3)
	ipiv := make([]int, 50)
	if err := GETF2(a, ipiv); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 50; j++ {
		for i := j + 1; i < 50; i++ {
			if math.Abs(a.At(i, j)) > 1+1e-15 {
				t.Fatalf("|L(%d,%d)| = %v > 1", i, j, a.At(i, j))
			}
		}
	}
}

func TestGETF2Singular(t *testing.T) {
	a := matrix.New(3, 3) // all zeros
	ipiv := make([]int, 3)
	if err := GETF2(a, ipiv); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestGETRFSingularColumn(t *testing.T) {
	a := matrix.Random(6, 6, 8)
	// Zero out column 2 entirely.
	for i := 0; i < 6; i++ {
		a.Set(i, 2, 0)
	}
	ipiv := make([]int, 6)
	if err := GETRF(a, ipiv, 2); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLASWPRoundTrip(t *testing.T) {
	a := matrix.Random(8, 5, 4)
	orig := a.Clone()
	ipiv := []int{3, 1, 7, 3, 4}
	LASWP(a, ipiv, 0, 5)
	if a.Equal(orig) {
		t.Fatal("LASWP did nothing")
	}
	LASWPBackward(a, ipiv, 0, 5)
	if !a.Equal(orig) {
		t.Fatal("LASWPBackward did not undo LASWP")
	}
}

func TestIpivToPerm(t *testing.T) {
	// A with rows 0..3; swap 0<->2 then 1<->3 gives rows [2 3 0 1].
	ipiv := []int{2, 3}
	p := IpivToPerm(ipiv, 4)
	want := []int{2, 3, 0, 1}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("perm = %v want %v", p, want)
		}
	}
	// Cross-check against actually applying LASWP to a labeled matrix.
	a := matrix.New(4, 1)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i))
	}
	LASWP(a, ipiv, 0, 2)
	for i := 0; i < 4; i++ {
		if int(a.At(i, 0)) != p[i] {
			t.Fatalf("row %d: LASWP gives %v, perm says %d", i, a.At(i, 0), p[i])
		}
	}
}

func TestLUSolve(t *testing.T) {
	n := 30
	orig := matrix.Random(n, n, 5)
	xWant := matrix.Random(n, 2, 6)
	b := blas.Mul(blas.NoTrans, blas.NoTrans, orig, xWant)
	lu := orig.Clone()
	ipiv := make([]int, n)
	if err := GETRF(lu, ipiv, 8); err != nil {
		t.Fatal(err)
	}
	LUSolve(lu, ipiv, b)
	if !b.EqualApprox(xWant, 1e-9) {
		t.Fatal("LUSolve wrong solution")
	}
}

func TestGrowthFactorWilkinson(t *testing.T) {
	// Partial pivoting on the Wilkinson matrix gives growth 2^(n-1).
	n := 10
	w := matrix.Wilkinson(n)
	a := w.Clone()
	ipiv := make([]int, n)
	if err := GETF2(a, ipiv); err != nil {
		t.Fatal(err)
	}
	g := GrowthFactor(a, w)
	want := math.Pow(2, float64(n-1))
	if math.Abs(g-want)/want > 1e-12 {
		t.Fatalf("growth = %v want %v", g, want)
	}
}

func TestPGETRFMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		orig := matrix.Random(60, 60, 7)
		a1, a2 := orig.Clone(), orig.Clone()
		p1, p2 := make([]int, 60), make([]int, 60)
		if err := GETRF(a1, p1, 16); err != nil {
			t.Fatal(err)
		}
		if err := PGETRF(a2, p2, 16, workers); err != nil {
			t.Fatal(err)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("workers=%d: pivot %d differs", workers, i)
			}
		}
		if !a1.EqualApprox(a2, 1e-12) {
			t.Fatalf("workers=%d: factors differ", workers)
		}
	}
}

func TestPGETRFTallSkinny(t *testing.T) {
	checkLU(t, "PGETRF", func(a *matrix.Dense, ipiv []int) error {
		return PGETRF(a, ipiv, 8, 4)
	}, 300, 24, 11)
}

// Property: for random matrices, all three LU variants solve systems to
// high accuracy.
func TestLUVariantsSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(uint64(seed)%20)
		orig := matrix.DiagonallyDominant(n, seed)
		x := matrix.Random(n, 1, seed+1)
		b0 := blas.Mul(blas.NoTrans, blas.NoTrans, orig, x)
		for _, factor := range []func(a *matrix.Dense, ipiv []int) error{
			GETF2,
			RGETF2,
			func(a *matrix.Dense, ipiv []int) error { return GETRF(a, ipiv, 4) },
		} {
			lu := orig.Clone()
			ipiv := make([]int, n)
			if err := factor(lu, ipiv); err != nil {
				return false
			}
			b := b0.Clone()
			LUSolve(lu, ipiv, b)
			if !b.EqualApprox(x, 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGETRI(t *testing.T) {
	n := 40
	orig := matrix.Random(n, n, 91)
	lu := orig.Clone()
	ipiv := make([]int, n)
	if err := GETRF(lu, ipiv, 8); err != nil {
		t.Fatal(err)
	}
	inv := GETRI(lu, ipiv)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, orig, inv)
	if !prod.EqualApprox(matrix.Identity(n), 1e-10*float64(n)) {
		t.Fatal("A * A^{-1} != I")
	}
	prod2 := blas.Mul(blas.NoTrans, blas.NoTrans, inv, orig)
	if !prod2.EqualApprox(matrix.Identity(n), 1e-10*float64(n)) {
		t.Fatal("A^{-1} * A != I")
	}
}
