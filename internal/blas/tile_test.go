package blas_test

import (
	"math"
	"slices"
	"testing"

	"repro/factor"
	"repro/internal/blas"
)

// TestTilesBitIdentical checks that the avx512 and avx2 tiles give
// bit-identical results: both accumulate every element of C in the same
// depth order with FMAs and add it to C with one FMA. It covers every
// gemmCases shape, the Left Dtrsm and Dtrmm sweeps of triCases, and one
// CALU and one CAQR factorization.
func TestTilesBitIdentical(t *testing.T) {
	if !slices.Contains(blas.Tiles(), "avx512") {
		t.Skipf("this host cannot run the avx512 tile (no AVX512F, or the OS does not save ZMM state); tiles: %v", blas.Tiles())
	}
	t.Run("dgemm", func(t *testing.T) {
		r := lcg(1)
		for caseIdx, s := range gemmCases() {
			g := newGemmCall(s, caseIdx, &r)
			if i := bitDiff(onTiles(g.run)); i >= 0 {
				t.Fatalf("Dgemm transA=%v transB=%v m=%d n=%d k=%d alpha=%g: c[%d] differs", s.transA, s.transB, s.m, s.n, s.k, g.alpha, i)
			}
		}
	})
	t.Run("left-trsm-trmm", func(t *testing.T) {
		r := lcg(2)
		for caseIdx, c := range triCases() {
			if c.side != blas.Left {
				continue
			}
			a, lda, b, ldb, alpha := triOperands(c, caseIdx+1, &r)
			for _, routine := range []struct {
				name string
				f    func(blas.Side, blas.Uplo, blas.Transpose, blas.Diag, int, int, float64, []float64, int, []float64, int)
			}{{"Dtrsm", blas.Dtrsm}, {"Dtrmm", blas.Dtrmm}} {
				run := func() []float64 {
					x := slices.Clone(b)
					routine.f(c.side, c.uplo, c.trans, c.diag, c.m, c.n, alpha, a, lda, x, ldb)
					return x
				}
				if i := bitDiff(onTiles(run)); i >= 0 {
					t.Fatalf("%s %s uplo=%v trans=%v diag=%v m=%d n=%d alpha=%g: b[%d] differs",
						routine.name, c.name, c.uplo, c.trans, c.diag, c.m, c.n, alpha, i)
				}
			}
		}
	})
	t.Run("factors", func(t *testing.T) {
		opt := factor.Options{BlockSize: 40, PanelThreads: 2, Workers: 2}
		lu := func() []float64 {
			a := factor.Random(300, 260, 21)
			if _, err := factor.LU(a, opt); err != nil {
				t.Fatalf("LU: %v", err)
			}
			return a.Data
		}
		qr := func() []float64 {
			a := factor.Random(500, 150, 22)
			if _, err := factor.QR(a, opt); err != nil {
				t.Fatalf("QR: %v", err)
			}
			return a.Data
		}
		if i := bitDiff(onTiles(lu)); i >= 0 {
			t.Fatalf("CALU 300x260 factor element %d differs", i)
		}
		if i := bitDiff(onTiles(qr)); i >= 0 {
			t.Fatalf("CAQR 500x150 factor element %d differs", i)
		}
	})
}

// onTiles returns run's results on the avx2 and on the avx512 tile.
func onTiles(run func() []float64) (avx2, avx512 []float64) {
	restore := blas.ForceTile("avx2")
	avx2 = run()
	restore()
	defer blas.ForceTile("avx512")()
	return avx2, run()
}

// bitDiff returns the first index at which x and y differ bitwise, or -1.
func bitDiff(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}
