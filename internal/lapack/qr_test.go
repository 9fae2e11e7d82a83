package lapack

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// qrResidual returns ||A - Q*R||_F / ||A||_F from an in-place QR factor.
func qrResidual(t *testing.T, fac *matrix.Dense, tau []float64, orig *matrix.Dense) float64 {
	t.Helper()
	k := min(fac.Rows, fac.Cols)
	q := ORGQR(fac, tau, k)
	r := ExtractR(fac)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
	diff := 0.0
	for j := 0; j < orig.Cols; j++ {
		a, b := orig.Col(j), prod.Col(j)
		for i := range a {
			d := a[i] - b[i]
			diff += d * d
		}
	}
	return math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300)
}

// orthoError returns ||Q^T Q - I||_max.
func orthoError(q *matrix.Dense) float64 {
	qtq := blas.Mul(blas.Trans, blas.NoTrans, q, q)
	for i := 0; i < qtq.Rows; i++ {
		qtq.Set(i, i, qtq.At(i, i)-1)
	}
	return qtq.MaxAbs()
}

func TestGEQR2Shapes(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {5, 5}, {20, 5}, {5, 20}, {50, 50}, {128, 16}} {
		m, n := dims[0], dims[1]
		orig := matrix.Random(m, n, int64(m*31+n))
		a := orig.Clone()
		tau := make([]float64, min(m, n))
		GEQR2(a, tau)
		if res := qrResidual(t, a, tau, orig); res > 1e-13*float64(max(m, n)) {
			t.Errorf("GEQR2 %dx%d residual %g", m, n, res)
		}
		q := ORGQR(a, tau, min(m, n))
		if e := orthoError(q); e > 1e-13*float64(m) {
			t.Errorf("GEQR2 %dx%d orthogonality %g", m, n, e)
		}
	}
}

func TestGEQRFShapes(t *testing.T) {
	for _, nb := range []int{1, 4, 16} {
		for _, dims := range [][2]int{{10, 10}, {60, 25}, {25, 60}, {100, 100}} {
			m, n := dims[0], dims[1]
			orig := matrix.Random(m, n, int64(nb*7+m))
			a := orig.Clone()
			tau := make([]float64, min(m, n))
			GEQRF(a, tau, nb)
			if res := qrResidual(t, a, tau, orig); res > 1e-13*float64(max(m, n)) {
				t.Errorf("GEQRF nb=%d %dx%d residual %g", nb, m, n, res)
			}
		}
	}
}

func TestGEQR3Shapes(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {8, 8}, {20, 7}, {64, 64}, {200, 33}, {37, 37},
		{500, 7}, {500, 8}, {500, 9}, {500, 17}} {
		m, n := dims[0], dims[1]
		orig := matrix.Random(m, n, int64(m*13+n))
		a := orig.Clone()
		tau := make([]float64, n)
		tmat := matrix.New(n, n)
		GEQR3(a, tau, tmat)
		if res := qrResidual(t, a, tau, orig); res > 1e-13*float64(max(m, n)) {
			t.Errorf("GEQR3 %dx%d residual %g", m, n, res)
		}
	}
}

func TestGEQR3TFactorConsistent(t *testing.T) {
	// The T returned by GEQR3 must satisfy Q = I - V T V^T: applying it via
	// Larfb must match applying reflectors one at a time via ORGQR.
	m, n := 40, 12
	orig := matrix.Random(m, n, 17)
	a := orig.Clone()
	tau := make([]float64, n)
	tmat := matrix.New(n, n)
	GEQR3(a, tau, tmat)

	// Apply Q^T to the original matrix via Larfb: should give R on top.
	c := orig.Clone()
	Larfb(blas.Trans, a, tmat, c)
	r := ExtractR(a)
	top := c.View(0, 0, n, n)
	if !top.EqualApprox(r.View(0, 0, n, n), 1e-11) {
		t.Fatal("Larfb(Q^T, A) top block != R")
	}
	// Bottom must be annihilated.
	bottom := c.View(n, 0, m-n, n)
	if bottom.MaxAbs() > 1e-11 {
		t.Fatalf("Larfb(Q^T, A) bottom not zero: %g", bottom.MaxAbs())
	}
}

func TestLarfbRoundTrip(t *testing.T) {
	// Applying Q then Q^T must restore the input.
	m, n, k := 30, 9, 6
	a := matrix.Random(m, k, 21)
	tau := make([]float64, k)
	tmat := matrix.New(k, k)
	GEQR3(a, tau, tmat)
	c := matrix.Random(m, n, 22)
	orig := c.Clone()
	Larfb(blas.NoTrans, a, tmat, c)
	if c.EqualApprox(orig, 1e-14) {
		t.Fatal("Larfb(Q) was a no-op")
	}
	Larfb(blas.Trans, a, tmat, c)
	if !c.EqualApprox(orig, 1e-11) {
		t.Fatal("Q^T Q C != C")
	}
}

// TestLarfbZeroColumnC applies a reflector to a C with no columns and no
// data, which must leave it alone rather than view C's rows past the end.
func TestLarfbZeroColumnC(t *testing.T) {
	m, k := 12, 4
	v := matrix.Random(m, k, 23)
	tau := make([]float64, k)
	tmat := matrix.New(k, k)
	GEQR3(v, tau, tmat)
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		c := matrix.New(m, 0)
		Larfb(trans, v, tmat, c)
		if c.Rows != m || c.Cols != 0 || len(c.Data) != 0 {
			t.Fatalf("Larfb trans=%v changed a %dx0 C to %dx%d with %d elements", trans, m, c.Rows, c.Cols, len(c.Data))
		}
	}
}

func TestLarftMatchesGEQR3T(t *testing.T) {
	// Larft on the reflectors from GEQR3 must rebuild the same T.
	m, n := 25, 8
	a := matrix.Random(m, n, 23)
	tau := make([]float64, n)
	tmat := matrix.New(n, n)
	GEQR3(a, tau, tmat)
	t2 := matrix.New(n, n)
	Larft(a, tau, t2)
	if !tmat.EqualApprox(t2, 1e-11) {
		t.Fatalf("T mismatch:\nGEQR3 %v\nLarft %v", tmat, t2)
	}
}

func TestLarfgZeroTail(t *testing.T) {
	beta, tau := Larfg(3, []float64{0, 0})
	if tau != 0 || beta != 3 {
		t.Fatalf("Larfg on zero tail: beta=%v tau=%v", beta, tau)
	}
}

func TestLarfgAnnihilates(t *testing.T) {
	x := []float64{4, 3}
	alpha := 0.0
	beta, tau := Larfg(alpha, x)
	// |beta| must equal the norm of [alpha; x] = 5.
	if math.Abs(math.Abs(beta)-5) > 1e-14 {
		t.Fatalf("beta = %v", beta)
	}
	// Applying H to [alpha; xOrig] must give [beta; 0].
	v := []float64{1, x[0], x[1]}
	full := []float64{alpha, 4, 3}
	dot := 0.0
	for i := range v {
		dot += v[i] * full[i]
	}
	for i := range full {
		full[i] -= tau * v[i] * dot
	}
	if math.Abs(full[0]-beta) > 1e-14 || math.Abs(full[1]) > 1e-14 || math.Abs(full[2]) > 1e-14 {
		t.Fatalf("H [alpha;x] = %v, want [%v 0 0]", full, beta)
	}
}

func TestPGEQRFMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		orig := matrix.Random(50, 30, 25)
		a1, a2 := orig.Clone(), orig.Clone()
		t1, t2 := make([]float64, 30), make([]float64, 30)
		GEQRF(a1, t1, 8)
		PGEQRF(a2, t2, 8, workers)
		if !a1.EqualApprox(a2, 1e-12) {
			t.Fatalf("workers=%d: factors differ", workers)
		}
		for i := range t1 {
			if math.Abs(t1[i]-t2[i]) > 1e-13 {
				t.Fatalf("workers=%d: tau differs at %d", workers, i)
			}
		}
	}
}

// Property: R's diagonal magnitudes from QR equal the column norms of the
// successively orthogonalized basis; cheaper invariant: |det(R)| equals
// the product of singular values... instead verify A^T A == R^T R.
func TestQRGramProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := 20 + int(uint64(seed)%20)
		n := 5 + int(uint64(seed)%8)
		orig := matrix.Random(m, n, seed)
		a := orig.Clone()
		tau := make([]float64, n)
		tmat := matrix.New(n, n)
		GEQR3(a, tau, tmat)
		r := ExtractR(a)
		ata := blas.Mul(blas.Trans, blas.NoTrans, orig, orig)
		rtr := blas.Mul(blas.Trans, blas.NoTrans, r, r)
		return ata.EqualApprox(rtr, 1e-9*float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestORMQRMatchesExplicitQ(t *testing.T) {
	m, n := 40, 16
	orig := matrix.Random(m, n, 61)
	a := orig.Clone()
	tau := make([]float64, n)
	GEQRF(a, tau, 8)
	q := ORGQR(a, tau, n)

	c := matrix.Random(m, 5, 62)
	// Q^T c via ORMQR vs explicit.
	got := c.Clone()
	ORMQR(blas.Trans, a, tau, 8, got)
	want := blas.Mul(blas.Trans, blas.NoTrans, q, c)
	if !got.View(0, 0, n, 5).EqualApprox(want, 1e-11) {
		t.Fatal("ORMQR(Q^T) mismatch")
	}
	// Round trip: Q (Q^T c) == c.
	ORMQR(blas.NoTrans, a, tau, 8, got)
	if !got.EqualApprox(c, 1e-10) {
		t.Fatal("ORMQR round trip failed")
	}
}

func TestORMQRBlockSizes(t *testing.T) {
	m, n := 30, 12
	a := matrix.Random(m, n, 63)
	tau := make([]float64, n)
	GEQRF(a, tau, 4)
	c := matrix.Random(m, 3, 64)
	var ref *matrix.Dense
	for _, nb := range []int{1, 3, 5, 12} {
		got := c.Clone()
		ORMQR(blas.Trans, a, tau, nb, got)
		if ref == nil {
			ref = got
		} else if !got.EqualApprox(ref, 1e-12) {
			t.Fatalf("nb=%d differs", nb)
		}
	}
}
