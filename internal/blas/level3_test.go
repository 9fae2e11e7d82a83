package blas

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

// refGemm is a deliberately naive triple loop used as the oracle for the
// blocked Dgemm.
func refGemm(transA, transB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	opA := a
	if transA == Trans {
		opA = a.Transpose()
	}
	opB := b
	if transB == Trans {
		opB = b.Transpose()
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			sum := 0.0
			for p := 0; p < opA.Cols; p++ {
				sum += opA.At(i, p) * opB.At(p, j)
			}
			c.Set(i, j, alpha*sum+beta*c.At(i, j))
		}
	}
}

func TestDgemmAllTransposes(t *testing.T) {
	const m, n, k = 13, 9, 7
	for _, ta := range []Transpose{NoTrans, Trans} {
		for _, tb := range []Transpose{NoTrans, Trans} {
			ar, ac := m, k
			if ta == Trans {
				ar, ac = k, m
			}
			br, bc := k, n
			if tb == Trans {
				br, bc = n, k
			}
			a := matrix.Random(ar, ac, 1)
			b := matrix.Random(br, bc, 2)
			c := matrix.Random(m, n, 3)
			want := c.Clone()
			refGemm(ta, tb, 1.5, a, b, 0.5, want)
			Gemm(ta, tb, 1.5, a, b, 0.5, c)
			if !c.EqualApprox(want, 1e-12) {
				t.Errorf("Dgemm transA=%v transB=%v mismatch", ta, tb)
			}
		}
	}
}

func TestDgemmLargeBlocked(t *testing.T) {
	// Exercise the kc/mc blocking boundaries and the 4-wide tail.
	const m, n, k = 300, 17, 520
	a := matrix.Random(m, k, 4)
	b := matrix.Random(k, n, 5)
	c := matrix.New(m, n)
	want := matrix.New(m, n)
	refGemm(NoTrans, NoTrans, 1, a, b, 0, want)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	if !c.EqualApprox(want, 1e-10) {
		t.Fatal("blocked Dgemm mismatch on large sizes")
	}
}

func TestDgemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta == 0 must overwrite even NaN entries in C.
	a := matrix.Identity(3)
	b := matrix.Identity(3)
	c := matrix.New(3, 3)
	c.Fill(math.NaN())
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	if !c.EqualApprox(matrix.Identity(3), 0) {
		t.Fatalf("beta=0 did not clear NaN: %v", c)
	}
}

func TestDgemmKZero(t *testing.T) {
	a := matrix.New(4, 0)
	b := matrix.New(0, 4)
	c := matrix.Random(4, 4, 6)
	want := c.Clone()
	Gemm(NoTrans, NoTrans, 1, a, b, 1, c)
	if !c.Equal(want) {
		t.Fatal("k=0 with beta=1 must leave C unchanged")
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(NoTrans, NoTrans, 1, matrix.New(2, 3), matrix.New(4, 2), 0, matrix.New(2, 2))
}

func TestDgemmViewStrides(t *testing.T) {
	// Operate on views into a larger matrix so lda > rows.
	parent := matrix.Random(20, 20, 7)
	a := parent.View(2, 3, 6, 4)
	b := parent.View(9, 1, 4, 5)
	c := matrix.New(6, 5)
	want := matrix.New(6, 5)
	refGemm(NoTrans, NoTrans, 2, a, b, 0, want)
	Gemm(NoTrans, NoTrans, 2, a, b, 0, c)
	if !c.EqualApprox(want, 1e-12) {
		t.Fatal("Dgemm with non-tight strides mismatch")
	}
}

func refTri(uplo Uplo, diag Diag, a *matrix.Dense) *matrix.Dense {
	n := a.Rows
	tri := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			in := (uplo == Upper && j >= i) || (uplo == Lower && j <= i)
			if in {
				tri.Set(i, j, a.At(i, j))
			}
		}
		if diag == Unit {
			tri.Set(i, i, 1)
		}
	}
	return tri
}

func TestDtrsmAllCases(t *testing.T) {
	const m, n = 7, 5
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					na := m
					if side == Right {
						na = n
					}
					a := matrix.Random(na, na, 11)
					// Make diagonal well-conditioned.
					for i := 0; i < na; i++ {
						a.Set(i, i, a.At(i, i)+3)
					}
					b := matrix.Random(m, n, 12)
					x := b.Clone()
					Trsm(side, uplo, trans, diag, 2, a, x)
					// Verify op(T)*X == 2B (or X*op(T) == 2B).
					tri := refTri(uplo, diag, a)
					var got *matrix.Dense
					if side == Left {
						got = Mul(trans, NoTrans, tri, x)
					} else {
						got = Mul(NoTrans, trans, x, tri)
					}
					want := b.Clone()
					for j := 0; j < n; j++ {
						col := want.Col(j)
						for i := range col {
							col[i] *= 2
						}
					}
					if !got.EqualApprox(want, 1e-10) {
						t.Errorf("Dtrsm side=%v uplo=%v trans=%v diag=%v mismatch", side, uplo, trans, diag)
					}
				}
			}
		}
	}
}

func TestDtrmmAllCases(t *testing.T) {
	const m, n = 6, 4
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					na := m
					if side == Right {
						na = n
					}
					a := matrix.Random(na, na, 21)
					b := matrix.Random(m, n, 22)
					x := b.Clone()
					Trmm(side, uplo, trans, diag, 1.5, a, x)
					tri := refTri(uplo, diag, a)
					var want *matrix.Dense
					if side == Left {
						want = Mul(trans, NoTrans, tri, b)
					} else {
						want = Mul(NoTrans, trans, b, tri)
					}
					for j := 0; j < n; j++ {
						col := want.Col(j)
						for i := range col {
							col[i] *= 1.5
						}
					}
					if !x.EqualApprox(want, 1e-11) {
						t.Errorf("Dtrmm side=%v uplo=%v trans=%v diag=%v mismatch", side, uplo, trans, diag)
					}
				}
			}
		}
	}
}

func TestDgemvBothTransposes(t *testing.T) {
	const m, n = 8, 5
	a := matrix.Random(m, n, 41)
	x := matrix.Random(n, 1, 42).Col(0)
	y := matrix.Random(m, 1, 43).Col(0)
	want := make([]float64, m)
	for i := 0; i < m; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += a.At(i, j) * x[j]
		}
		want[i] = 2*sum + 0.5*y[i]
	}
	Dgemv(NoTrans, m, n, 2, a.Data, a.Stride, x, 1, 0.5, y, 1)
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("Dgemv NoTrans: y=%v want=%v", y, want)
		}
	}

	xt := matrix.Random(m, 1, 44).Col(0)
	yt := make([]float64, n)
	wantT := make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			sum += a.At(i, j) * xt[i]
		}
		wantT[j] = sum
	}
	Dgemv(Trans, m, n, 1, a.Data, a.Stride, xt, 1, 0, yt, 1)
	for j := range wantT {
		if math.Abs(yt[j]-wantT[j]) > 1e-12 {
			t.Fatalf("Dgemv Trans: y=%v want=%v", yt, wantT)
		}
	}
}

func TestDgerMatchesGemm(t *testing.T) {
	const m, n = 7, 6
	x := matrix.Random(m, 1, 51)
	y := matrix.Random(n, 1, 52)
	a := matrix.Random(m, n, 53)
	want := a.Clone()
	refGemm(NoTrans, Trans, -1, x, y, 1, want)
	Dger(m, n, -1, x.Col(0), 1, y.Col(0), 1, a.Data, a.Stride)
	if !a.EqualApprox(want, 1e-13) {
		t.Fatal("Dger mismatch vs rank-1 gemm")
	}
}

func TestDtrsvSingularProducesInf(t *testing.T) {
	// A zero pivot must produce Inf/NaN rather than corrupting memory;
	// callers detect singularity separately.
	a := matrix.New(2, 2)
	a.Set(0, 0, 0)
	a.Set(1, 1, 1)
	x := []float64{1, 1}
	Dtrsv(Lower, NoTrans, NonUnit, 2, a.Data, a.Stride, x, 1)
	if !math.IsInf(x[0], 0) && !math.IsNaN(x[0]) {
		t.Fatalf("expected Inf/NaN, got %v", x[0])
	}
}
