package factor_test

import (
	"errors"
	"math"
	"testing"

	"repro/factor"
)

func TestLUSolveRoundTrip(t *testing.T) {
	n := 40
	a := factor.Random(n, n, 1)
	orig := a.Clone()
	xWant := factor.Random(n, 1, 2)
	// rhs = A * x.
	rhs := factor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += orig.At(i, j) * xWant.At(j, 0)
		}
		rhs.Set(i, 0, s)
	}
	lu, err := factor.LU(a, factor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lu.Solve(rhs)
	if !rhs.EqualApprox(xWant, 1e-8) {
		t.Fatal("wrong solution")
	}
}

func TestLUDefaultsAndOptions(t *testing.T) {
	a := factor.Random(60, 30, 3)
	lu, err := factor.LU(a, factor.Options{
		BlockSize: 10, PanelThreads: 4, Tree: factor.Flat, Workers: 2, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lu.Factors() != a {
		t.Fatal("Factors should be the in-place matrix")
	}
	if len(lu.Events()) == 0 {
		t.Fatal("trace requested but no events")
	}
}

func TestLUSingular(t *testing.T) {
	a := factor.NewMatrix(10, 10)
	if _, err := factor.LU(a, factor.Options{}); !errors.Is(err, factor.ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUPermute(t *testing.T) {
	n := 12
	a := factor.Random(n, n, 4)
	orig := a.Clone()
	lu, err := factor.LU(a, factor.Options{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// P*orig must equal L*U: check via solving instead of reconstructing —
	// permute a labeled vector and verify it is a permutation.
	lab := factor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		lab.Set(i, 0, float64(i))
	}
	lu.Permute(lab)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		seen[int(lab.At(i, 0))] = true
	}
	if len(seen) != n {
		t.Fatalf("Permute is not a permutation: %v", lab)
	}
	_ = orig
}

func TestQRLeastSquares(t *testing.T) {
	m, n := 200, 8
	a := factor.Random(m, n, 5)
	orig := a.Clone()
	xWant := factor.Random(n, 1, 6)
	rhs := factor.NewMatrix(m, 1)
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += orig.At(i, j) * xWant.At(j, 0)
		}
		rhs.Set(i, 0, s)
	}
	qr := mustQR(t, a, factor.Options{PanelThreads: 4})
	x := qr.LeastSquares(rhs)
	if !x.EqualApprox(xWant, 1e-8) {
		t.Fatal("wrong least-squares solution")
	}
}

func TestQRFactorsOrthonormal(t *testing.T) {
	m, n := 80, 12
	a := factor.Random(m, n, 7)
	orig := a.Clone()
	qr := mustQR(t, a, factor.Options{BlockSize: 4, Workers: 3})
	q := qr.Q()
	r := qr.R()
	// Q^T Q == I.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < m; k++ {
				s += q.At(k, i) * q.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-11 {
				t.Fatalf("Q^T Q (%d,%d) = %v", i, j, s)
			}
		}
	}
	// Q*R == orig.
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += q.At(i, k) * r.At(k, j)
			}
			if math.Abs(s-orig.At(i, j)) > 1e-10 {
				t.Fatalf("QR (%d,%d) = %v want %v", i, j, s, orig.At(i, j))
			}
		}
	}
}

func TestQRApplyRoundTrip(t *testing.T) {
	a := factor.Random(60, 20, 8)
	qr := mustQR(t, a, factor.Options{})
	c := factor.Random(60, 2, 9)
	orig := c.Clone()
	qr.ApplyQT(c)
	qr.ApplyQ(c)
	if !c.EqualApprox(orig, 1e-9) {
		t.Fatal("Q Q^T round trip failed")
	}
}

func TestFromRowsAndColMajor(t *testing.T) {
	m := factor.FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("FromRows wrong")
	}
	data := []float64{1, 2, 3, 4}
	v := factor.FromColMajor(2, 2, 2, data)
	if v.At(0, 1) != 3 {
		t.Fatal("FromColMajor wrong")
	}
}

func TestHybridTreePublicAPI(t *testing.T) {
	a := factor.Random(120, 24, 13)
	orig := a.Clone()
	qr := mustQR(t, a, factor.Options{Tree: factor.Hybrid, PanelThreads: 8, BlockSize: 8})
	q, r := qr.Q(), qr.R()
	for i := 0; i < 120; i++ {
		for j := 0; j < 24; j++ {
			s := 0.0
			for k := 0; k < 24; k++ {
				s += q.At(i, k) * r.At(k, j)
			}
			if math.Abs(s-orig.At(i, j)) > 1e-10 {
				t.Fatalf("hybrid QR reconstruction failed at (%d,%d)", i, j)
			}
		}
	}
}

func TestConditionAndRefinementPublicAPI(t *testing.T) {
	n := 50
	orig := factor.Random(n, n, 21)
	// Make it comfortably nonsingular.
	for i := 0; i < n; i++ {
		orig.Set(i, i, orig.At(i, i)+float64(n))
	}
	anorm := orig.NormOne()
	a := orig.Clone()
	lu, err := factor.LU(a, factor.Options{BlockSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	rc := lu.Condition(anorm)
	if rc <= 0 || rc > 1 {
		t.Fatalf("rcond = %v out of (0, 1]", rc)
	}
	// Transpose solve round trip.
	xWant := factor.Random(n, 1, 22)
	rhs := factor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += orig.At(j, i) * xWant.At(j, 0) // A^T x
		}
		rhs.Set(i, 0, s)
	}
	lu.SolveTranspose(rhs)
	if !rhs.EqualApprox(xWant, 1e-8) {
		t.Fatal("SolveTranspose wrong through public API")
	}
	// Refinement converges.
	rhs2 := factor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += orig.At(i, j) * xWant.At(j, 0)
		}
		rhs2.Set(i, 0, s)
	}
	if corr := lu.SolveRefined(orig, rhs2, 2); corr > 1e-10 {
		t.Fatalf("refinement correction %g", corr)
	}
	if !rhs2.EqualApprox(xWant, 1e-9) {
		t.Fatal("SolveRefined wrong")
	}
}

func TestPermutationVector(t *testing.T) {
	n := 24
	orig := factor.Random(n, n, 41)
	a := orig.Clone()
	lu, err := factor.LU(a, factor.Options{BlockSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := lu.PermutationVector()
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
	// P*orig rows must follow p: verify the first column of P*orig.
	pa := orig.Clone()
	lu.Permute(pa)
	for i := 0; i < n; i++ {
		if pa.At(i, 0) != orig.At(p[i], 0) {
			t.Fatalf("row %d: permutation vector inconsistent", i)
		}
	}
}

// mustQR wraps factor.QR for the happy-path tests; error returns are
// covered by TestQRShapeError and the engine tests.
func mustQR(t *testing.T, a *factor.Matrix, opt factor.Options) *factor.QRFactorization {
	t.Helper()
	qr, err := factor.QR(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	return qr
}
