package blas

import (
	"fmt"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/scratch"
)

// Packed operands: one factor of several products C += alpha*A*B, packed
// once for all of them (doc/KERNELS.md, "Packed operands"). CALU's L task
// packs its block of L as a PackedA and the U task its block of U as a
// PackedB, and every S task multiplies the two with GemmPacked, so the
// S tasks stop packing the same blocks again for every product.
//
// A PackedA holds alpha*A in packA's layout, and a PackedB holds B in
// packB's layout, one block per KC depth range: the block of depth
// [pc, pc+kcb) starts at pc times the padded row count of A (or column
// count of B), and within it strip s starts at s*MR*kcb (s*NR*kcb). The
// operand records the KC it was packed with, and GemmPacked sums over
// those blocks in Dgemm's order, so its result is bit-identical to Dgemm's
// on the same views with that KC.

// packed is the state PackedA and PackedB share.
type packed struct {
	src     *matrix.Dense // the operand as given; the in-place route reads it
	kc      int           // depth of each packed block
	buf     []float64     // the packed blocks; nil when nothing was packed
	readers atomic.Int32  // products still to read buf
}

// PackedA is the A operand of GemmPacked: alpha*A for an m x k A.
type PackedA struct {
	packed
	alpha float64
}

// PackedB is the B operand of GemmPacked: a k x n B.
type PackedB struct {
	packed
}

// Pack stores alpha*a for readers products GemmPacked(p, b, c), each with
// a b at most n columns wide, and drops what p held before. Where every
// such product would read a in place (Dgemm's in-place route, see
// readsInPlace), nothing is packed and the products run Dgemm on a. a must
// not change until the last product has read it.
func (p *PackedA) Pack(alpha float64, a *matrix.Dense, n, readers int) {
	m, k := a.Rows, a.Cols
	mPad := ceilMul(m, gemmMR)
	p.alpha = alpha
	if p.start(a, m, n, k, mPad, readers) {
		for pc := 0; pc < k; pc += p.kc {
			packA(NoTrans, m, min(p.kc, k-pc), alpha, a.Data[pc*a.Stride:], a.Stride, p.buf[pc*mPad:])
		}
	}
}

// Pack stores b for readers products GemmPacked(a, p, c), each with an a
// of at least m rows, and drops what p held before. Where every such
// product would read a in place, nothing is packed. b must not change
// until the last product has read it.
func (p *PackedB) Pack(b *matrix.Dense, m, readers int) {
	k, n := b.Rows, b.Cols
	nPad := ceilMul(n, gemmNR)
	if p.start(b, m, n, k, nPad, readers) {
		for pc := 0; pc < k; pc += p.kc {
			packB(NoTrans, min(p.kc, k-pc), n, b.Data[pc:], b.Stride, p.buf[pc*nPad:])
		}
	}
}

// start records src, its readers and Dgemm's KC for depth k. Unless there
// is no reader or every product m x n x k reads A in place, it takes a
// buffer of pad x k elements and reports that the caller must pack.
func (p *packed) start(src *matrix.Dense, m, n, k, pad, readers int) bool {
	p.src, p.buf, p.kc = src, nil, min(gemmKC, k)
	p.readers.Store(int32(readers))
	if readers < 1 || m == 0 || n == 0 || k == 0 || readsInPlace(m, n, k) {
		return false
	}
	p.buf = scratch.Get(pad * k) // calint:ignore scratch-release -- handed to the operand's readers; the last Release returns it
	return true
}

// Release ends one product's use of the operand. The Release that ends the
// last of the uses Pack was given returns the packed buffer to
// internal/scratch. Uses that never end leave it to the garbage collector.
// A Release beyond those uses panics: the buffer is back in the pool, and
// the caller may have read it after another reader took it.
func (p *packed) Release() {
	switch n := p.readers.Add(-1); {
	case n == 0 && p.buf != nil:
		scratch.Put(p.buf)
		p.buf = nil
	case n < 0:
		panic(fmt.Errorf("%w: Release of a packed operand after its last reader", ErrShape))
	}
}

// GemmPacked computes C += alpha*A*B for a packed alpha*A and B, with the
// KC they were packed with. It is bit-identical to Gemm(NoTrans, NoTrans,
// alpha, A, B, 1, C) on the views they were packed from. A product that
// Dgemm would run with A read in place or skip (alpha 0), or whose operand
// was not packed, runs Dgemm on those views.
func GemmPacked(a *PackedA, b *PackedB, c *matrix.Dense) {
	m, k, n := a.src.Rows, a.src.Cols, b.src.Cols
	if b.src.Rows != k || c.Rows != m || c.Cols != n {
		panic(fmt.Errorf("%w: GemmPacked shape mismatch A=%dx%d B=%dx%d C=%dx%d", ErrShape, m, k, b.src.Rows, n, c.Rows, c.Cols))
	}
	if a.buf == nil || b.buf == nil || a.kc != b.kc || a.alpha == 0 || readsInPlace(m, n, k) {
		Dgemm(NoTrans, NoTrans, m, n, k, a.alpha, a.src.Data, a.src.Stride, b.src.Data, b.src.Stride, 1, c.Data, c.Stride)
		return
	}
	mPad, nPad := ceilMul(m, gemmMR), ceilMul(n, gemmNR)
	for pc := 0; pc < k; pc += a.kc {
		kcb := min(a.kc, k-pc)
		bp := b.buf[pc*nPad:]
		for ic := 0; ic < m; ic += gemmMC {
			macroKernel(min(gemmMC, m-ic), n, kcb, a.buf[pc*mPad+ic*kcb:], bp, c.Data[ic:], c.Stride)
		}
	}
}
