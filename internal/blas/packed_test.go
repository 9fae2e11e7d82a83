package blas_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// packedCase is one GemmPacked call against Dgemm: C += alpha*A*B with
// NoTrans operands stored with ld slack rows, so a write outside C's m x n
// view shows in the whole-slice comparison.
type packedCase struct {
	m, n, k int
	alpha   float64
	a, b, c *matrix.Dense
}

// newPackedCase draws the operands of case caseIdx. Every third case
// seeds A, B and C with NaN, ±Inf, -0 and subnormals.
func newPackedCase(m, n, k int, alpha float64, caseIdx int, r *lcg) packedCase {
	slack := caseIdx % 3
	operand := func(rows, cols int) *matrix.Dense {
		d := matrix.FromColMajor(rows, cols, rows+slack, randSlice((rows+slack)*cols, r))
		if caseIdx%3 == 0 {
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310}
			for i, v := range specials {
				d.Set(int(uint64(*r)>>33)%rows, (i*7+caseIdx)%cols, v)
				r.next()
			}
		}
		return d
	}
	return packedCase{m: m, n: n, k: k, alpha: alpha, a: operand(m, k), b: operand(k, n), c: operand(m, n)}
}

// want returns C after Dgemm with beta 1 on a copy of the case's C.
func (pc packedCase) want() []float64 {
	c := slices.Clone(pc.c.Data)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, pc.m, pc.n, pc.k, pc.alpha, pc.a.Data, pc.a.Stride, pc.b.Data, pc.b.Stride, 1, c, pc.c.Stride)
	return c
}

// pack packs the case's operands for products with B up to nMax columns
// and A of at least mMin rows, one reader each.
func (pc packedCase) pack(nMax, mMin int) (*blas.PackedA, *blas.PackedB) {
	var pa blas.PackedA
	var pb blas.PackedB
	pa.Pack(pc.alpha, pc.a, nMax, 1)
	pb.Pack(pc.b, mMin, 1)
	return &pa, &pb
}

// run returns C after GemmPacked on a copy of the case's C, and releases
// the operands.
func (pc packedCase) run(pa *blas.PackedA, pb *blas.PackedB) []float64 {
	c := matrix.FromColMajor(pc.m, pc.n, pc.c.Stride, slices.Clone(pc.c.Data))
	blas.GemmPacked(pa, pb, c)
	pa.Release()
	pb.Release()
	return c.Data
}

// withBlockSizes runs f under the cache blocks (mc, kc, nc) and restores
// the previous ones.
func withBlockSizes(t *testing.T, mc, kc, nc int, f func()) {
	t.Helper()
	mc0, kc0, nc0 := blas.BlockSizes()
	if err := blas.SetBlockSizes(mc, kc, nc); err != nil {
		t.Fatal(err)
	}
	defer blas.SetBlockSizes(mc0, kc0, nc0)
	f()
}

func seq(lo, hi int) []int {
	var s []int
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestPackedGemmDifferential checks GemmPacked against Dgemm bit for bit on
// every tile, over m and n across one and two register tiles and the
// S task's 231 x 100, and k across KC block boundaries, at the default
// cache blocks and at (16, 7, 24), where k >= 8 spans several KC blocks
// and m > 16 several MC blocks. alpha cycles through -1, 1, 0.7 and 0. Half
// the cases pack each operand for its own product, so an in-place product
// packs nothing; the other half pack for a wider B and a shorter A, so the
// operands are packed and GemmPacked must still read an in-place
// product's A where it lies, as Dgemm does. alpha 0 must leave C as it is,
// NaN and Inf in A and B notwithstanding, as Dgemm leaves it.
func TestPackedGemmDifferential(t *testing.T) {
	ms := append(seq(1, 17), 23, 24, 25, 231)
	ns := append(seq(1, 13), 24, 64, 65, 100)
	ks := append(seq(1, 9), 64, 65, 100, 256, 257, 300)
	alphas := []float64{-1, 1, 0.7, 0}
	mc0, kc0, nc0 := blas.BlockSizes()
	everyTile(t, func(t *testing.T) {
		for _, blocks := range [][3]int{{mc0, kc0, nc0}, {16, 7, 24}} {
			withBlockSizes(t, blocks[0], blocks[1], blocks[2], func() {
				r := lcg(4)
				caseIdx := 0
				for _, m := range ms {
					for _, n := range ns {
						for _, k := range ks {
							caseIdx++
							pc := newPackedCase(m, n, k, alphas[caseIdx/2%len(alphas)], caseIdx, &r)
							nMax, mMin := n, m
							if caseIdx%2 == 0 {
								nMax, mMin = 100, 1
							}
							pa, pb := pc.pack(nMax, mMin)
							if i := bitDiff(pc.want(), pc.run(pa, pb)); i >= 0 {
								t.Fatalf("blocks %v m=%d n=%d k=%d alpha=%g packed for n<=%d m>=%d: c[%d] differs from Dgemm",
									blocks, m, n, k, pc.alpha, nMax, mMin, i)
							}
						}
					}
				}
			})
		}
	})
}

// TestPackedGemmKeepsKC packs under KC = 7 and multiplies after the
// default blocks are back: GemmPacked must sum over the KC its operands
// were packed with, as Dgemm did when they were packed.
func TestPackedGemmKeepsKC(t *testing.T) {
	r := lcg(5)
	pc := newPackedCase(231, 100, 100, -1, 1, &r)
	var want []float64
	var pa *blas.PackedA
	var pb *blas.PackedB
	withBlockSizes(t, 16, 7, 24, func() {
		want = pc.want()
		pa, pb = pc.pack(pc.n, pc.m)
	})
	if i := bitDiff(want, pc.run(pa, pb)); i >= 0 {
		t.Fatalf("c[%d] differs from Dgemm at the KC the operands were packed with", i)
	}
}

// TestPackedReleasePastLastReader releases a one-reader operand twice: the
// second Release must panic rather than return the buffer to the pool
// again.
func TestPackedReleasePastLastReader(t *testing.T) {
	var pa blas.PackedA
	pa.Pack(-1, matrix.Random(231, 100, 1), 100, 1)
	pa.Release()
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, blas.ErrShape) {
			t.Fatalf("a Release past the last reader panicked with %v, want ErrShape", err)
		}
	}()
	pa.Release()
}
