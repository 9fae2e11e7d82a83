package blas

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Differential tests of the packing layer: the assembly full-strip kernels
// (pack_amd64.s) against the Go loops, bit for bit.

// packSizes are the mc/nc values of the pack sweep: every size up to two
// A strips plus one row, both sides of two B strips, and a multi-strip
// block with a fringe in both directions.
var packSizes = func() []int {
	var s []int
	for n := 1; n <= 17; n++ {
		s = append(s, n)
	}
	return append(s, 23, 24, 25, 100)
}()

// packDepths are the kc values of the pack sweep: odd and even depths up to
// 8 for the kernels' paired steps and odd last step, and gemmKC and one
// below it.
var packDepths = []int{1, 2, 3, 4, 5, 6, 7, 8, 255, 256}

// packSpecials are the values a pack must carry bit for bit: a quiet and a
// signalling NaN (alpha*v quiets it the same way on both paths), the
// infinities, negative zero and subnormals.
var packSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 5e-324, -0x1p-1060, math.SmallestNonzeroFloat64 * 3,
}

// packSource returns an exact-length source of n elements: mostly values in
// [-1, 1), with a special value at every 7th element.
func packSource(n int, seed uint64) []float64 {
	s := make([]float64, n)
	r := seed
	for i := range s {
		r = r*6364136223846793005 + 1442695040888963407
		s[i] = float64(int64(r>>11))/float64(1<<52) - 1
		if i%7 == 3 {
			s[i] = packSpecials[(i/7)%len(packSpecials)]
		}
	}
	return s[:n:n]
}

// packGuard is how many cells past the packed block the tests check stay
// untouched, and packFill the NaN payload every buffer cell starts as.
const (
	packGuard = 16
	packFill  = 0x7ff8dead0000beef
)

// packBuffer returns a buffer of n cells plus packGuard guard cells, all
// holding packFill.
func packBuffer(n int) []float64 {
	buf := make([]float64, n+packGuard)
	for i := range buf {
		buf[i] = math.Float64frombits(packFill)
	}
	return buf
}

// onGenericAndProbed returns run's buffer with the Go loops forced and with
// the probed tile, whose full strips take the assembly kernels.
func onGenericAndProbed(run func() []float64) (generic, probed []float64) {
	restore := ForceTile("generic")
	generic = run()
	restore()
	defer ForceTile(probedTile.String())()
	return generic, run()
}

// comparePacked fails unless the two buffers are bitwise equal and their
// guard cells past n still hold packFill.
func comparePacked(t *testing.T, what string, n int, generic, probed []float64) {
	t.Helper()
	for i := range generic {
		if math.Float64bits(generic[i]) != math.Float64bits(probed[i]) {
			t.Fatalf("%s: cell %d is %#x on the Go loops, %#x on %v", what, i, math.Float64bits(generic[i]), math.Float64bits(probed[i]), probedTile)
		}
	}
	for i := n; i < len(probed); i++ {
		if math.Float64bits(probed[i]) != packFill {
			t.Fatalf("%s: guard cell %d written (%#x)", what, i-n, math.Float64bits(probed[i]))
		}
	}
}

// TestPackDifferential packs every sweep shape of op(A) and op(B), both
// orientations, from exact-length sources at leading-dimension slack 0-3,
// on the Go loops and on the probed tile, and compares the buffers bit for
// bit, guard cells included. On a host without an assembly tile both runs
// take the Go loops.
func TestPackDifferential(t *testing.T) {
	if probedTile == tileGeneric {
		t.Logf("no assembly tile on this host; the sweep compares the Go loops with themselves")
	}
	seed := uint64(1)
	for _, trans := range []Transpose{NoTrans, Trans} {
		for _, mn := range packSizes {
			for _, kc := range packDepths {
				for slack := 0; slack <= 3; slack++ {
					seed++
					// op(A) is mn x kc: a NoTrans source has mn-row columns,
					// a Trans source kc-row columns.
					rows, cols := mn, kc
					if trans == Trans {
						rows, cols = kc, mn
					}
					lda := rows + slack
					a := packSource((cols-1)*lda+rows, seed)
					n := ceilMul(mn, gemmMR) * kc
					for _, alpha := range []float64{1, -1, 0.7} {
						generic, probed := onGenericAndProbed(func() []float64 {
							buf := packBuffer(n)
							packA(trans, mn, kc, alpha, a, lda, buf)
							return buf
						})
						comparePacked(t, fmt.Sprintf("packA trans=%v mc=%d kc=%d lda=%d alpha=%g", trans, mn, kc, lda, alpha), n, generic, probed)
					}
					// op(B) is kc x mn: a NoTrans source has kc-row columns,
					// a Trans source mn-row columns.
					rows, cols = kc, mn
					if trans == Trans {
						rows, cols = mn, kc
					}
					ldb := rows + slack
					b := packSource((cols-1)*ldb+rows, seed)
					n = kc * ceilMul(mn, gemmNR)
					generic, probed := onGenericAndProbed(func() []float64 {
						buf := packBuffer(n)
						packB(trans, kc, mn, b, ldb, buf)
						return buf
					})
					comparePacked(t, fmt.Sprintf("packB trans=%v kc=%d nc=%d ldb=%d", trans, kc, mn, ldb), n, generic, probed)
				}
			}
		}
	}
}

// TestPackShortSourcePanics packs blocks made of full strips only, so the
// last source element is read by a strip kernel, from a source that ends
// exactly there (which must work) and from one element less (which must
// panic with a Go bounds error before any kernel reads past the end).
func TestPackShortSourcePanics(t *testing.T) {
	const mc, nc, kc, slack = 2 * gemmMR, 2 * gemmNR, 9, 2
	cases := []struct {
		name       string
		rows, cols int // the source's column height and column count
		pack       func(src []float64, ld int)
	}{
		{"A NoTrans", mc, kc, func(src []float64, ld int) { packA(NoTrans, mc, kc, 0.7, src, ld, make([]float64, mc*kc)) }},
		{"A Trans", kc, mc, func(src []float64, ld int) { packA(Trans, mc, kc, 0.7, src, ld, make([]float64, mc*kc)) }},
		{"B NoTrans", kc, nc, func(src []float64, ld int) { packB(NoTrans, kc, nc, src, ld, make([]float64, kc*nc)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ld := c.rows + slack
			n := (c.cols-1)*ld + c.rows
			src := packSource(n, 7)
			c.pack(src, ld)
			defer func() {
				if _, ok := recover().(runtime.Error); !ok {
					t.Fatalf("a source one element short did not panic with a Go bounds error")
				}
			}()
			c.pack(src[:n-1:n-1], ld)
		})
	}
}
