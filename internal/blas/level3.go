package blas

import (
	"fmt"

	"repro/internal/scratch"
)

// Level 3 drivers. Dgemm is the packed Goto-style implementation described
// in doc/KERNELS.md: the driver validates shapes, applies beta, then loops
// pack -> macrokernel over cache-sized blocks, with the pack buffers
// recycled through internal/scratch. Dtrsm and Dtrmm are recursive drivers
// that halve the triangle and push all off-diagonal work through Dgemm.
// The Right-side routines and the NonUnit Left Dtrsm halve down to one
// register tile and solve/multiply those with the unblocked kernels in
// level3unb.go; the Left-side Dtrmm and the Unit Left Dtrsm stop at order
// trmmPassMax and finish in one packed pass (trmmpass.go, trsmpass.go).
// So every BLAS3 routine's bulk flops run on the one microkernel. The
// pre-refactor unpacked kernels live on as baseline.RefGemm/RefTrsm/RefTrmm,
// the differential-testing references.

// Register tile of the packed Dgemm. These are fixed by the tile
// implementations (microkernel.go, microkernel_amd64.s); the cache block
// sizes gemmMC/gemmKC/gemmNC are tunable via SetBlockSizes.
const (
	gemmMR = 8  // rows of C per register tile (packed A strip height)
	gemmNR = 12 // columns of C per register tile (packed B strip width)
)

// Cache blocking parameters of the packed Dgemm: the KC x NC panel of
// packed B targets outer cache, the MC x KC panel of packed A inner cache,
// and one KC x NR strip of B streams from L1 while a microkernel runs.
// Defaults are conservative for the ~1 MiB-L2 class of machines this code
// targets; cmd/calibrate -tune searches better values for the host.
var (
	gemmMC = 128  // rows of packed A per macro block (multiple of gemmMR)
	gemmKC = 256  // depth of the rank-kc update
	gemmNC = 4092 // columns of packed B per macro block (multiple of gemmNR)
)

// BlockSizes returns the active cache blocking parameters (MC, KC, NC) of
// the packed Dgemm.
func BlockSizes() (mc, kc, nc int) {
	return gemmMC, gemmKC, gemmNC
}

// SetBlockSizes overrides the cache blocking parameters, rounding mc up to
// a multiple of the MR register tile and nc to a multiple of NR. It is
// meant for calibration (cmd/calibrate -tune) and benchmarking; it must not
// be called concurrently with running kernels.
func SetBlockSizes(mc, kc, nc int) error {
	if mc < gemmMR || kc < 1 || nc < gemmNR {
		return fmt.Errorf("%w: SetBlockSizes mc=%d kc=%d nc=%d (need mc>=%d, kc>=1, nc>=%d)", ErrShape, mc, kc, nc, gemmMR, gemmNR)
	}
	gemmMC = ceilMul(mc, gemmMR)
	gemmKC = kc
	gemmNC = ceilMul(nc, gemmNR)
	return nil
}

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(A) is m x k and
// op(B) is k x n. All matrices are column-major with leading dimensions
// lda, ldb, ldc.
func Dgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	rowA, rowB := m, k
	if transA == Trans {
		rowA = k
	}
	if transB == Trans {
		rowB = n
	}
	if m < 0 || n < 0 || k < 0 || lda < max(1, rowA) || ldb < max(1, rowB) || ldc < max(1, m) {
		panic(fmt.Errorf("%w: Dgemm bad dims m=%d n=%d k=%d lda=%d ldb=%d ldc=%d", ErrShape, m, n, k, lda, ldb, ldc))
	}
	if m == 0 || n == 0 {
		return
	}
	// Scale C by beta first; the packed kernels only accumulate.
	scaleCols(n, m, beta, c, ldc)
	if k == 0 || alpha == 0 {
		return
	}
	if transA == NoTrans && readsInPlace(m, n, k) {
		gemmInPlace(transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}

	// Shrink the cache blocks to the problem so small multiplies do not pay
	// for full-sized pack buffers; strips stay MR/NR aligned.
	mc, kc, nc := gemmMC, gemmKC, gemmNC
	if mc > m {
		mc = ceilMul(m, gemmMR)
	}
	if kc > k {
		kc = k
	}
	if nc > n {
		nc = ceilMul(n, gemmNR)
	}

	ap := scratch.Get(mc * kc)
	defer scratch.Put(ap)
	bp := scratch.Get(kc * nc)
	defer scratch.Put(bp)

	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			boff := jc*ldb + pc
			if transB == Trans {
				boff = pc*ldb + jc
			}
			packB(transB, kcb, ncb, b[boff:], ldb, bp)
			for ic := 0; ic < m; ic += mc {
				mcb := min(mc, m-ic)
				aoff := pc*lda + ic
				if transA == Trans {
					aoff = ic*lda + pc
				}
				packA(transA, mcb, kcb, alpha, a[aoff:], lda, ap)
				macroKernel(mcb, ncb, kcb, ap, bp, c[jc*ldc+ic:], ldc)
			}
		}
	}
}

// Largest n and k for which Dgemm reads a NoTrans op(A) in place
// (gemmInPlace) instead of packing it. The panel recursions (GEQR3's
// C2 -= V2*W, RGETF2's A22 -= L21*U12) and the recursive Dtrsm/Dtrmm issue
// such updates with k and n at most half the panel width, and each 8 x k
// strip of A stays in L1 while it sweeps B. On the 8x4 AVX2 tile, reading
// A in place still beat packing it at n = k = 64 and lost at n = k = 100,
// so the b = 100 trailing updates (S tasks) keep packing. The limits are
// not tied to NR: they decide which updates apply alpha on write-back
// rather than in the packed A, so moving them changes results' rounding.
const (
	inPlaceMaxN = 64
	inPlaceMaxK = 64
)

// readsInPlace reports whether Dgemm reads a NoTrans op(A) of an
// m x n x k product in place (gemmInPlace) rather than packing it.
func readsInPlace(m, n, k int) bool {
	return m >= gemmMR && n <= inPlaceMaxN && k <= inPlaceMaxK
}

// gemmInPlace computes C += alpha*A*op(B) for a NoTrans A of at least one
// full register strip, with n <= inPlaceMaxN and k <= inPlaceMaxK. op(B)
// is packed once; every full 8-row strip of A is then read where it lies,
// at stride lda, by the register tile, which applies alpha on write-back.
// The strip stays in L1 while it sweeps B's few NR strips, so packing it
// would only copy it once more. Fringe columns go through the tile buffer,
// and the rows below the last full strip are packed and run through the
// macrokernel as usual.
func gemmInPlace(transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	// The assembly tiles read and write without bounds checks; fail here,
	// as the packing path would, when A or C is shorter than its shape.
	_ = a[(k-1)*lda+m-1]
	_ = c[(n-1)*ldc+m-1]
	bp := scratch.Get(k * ceilMul(n, gemmNR))
	defer scratch.Put(bp)
	packB(transB, k, n, b, ldb, bp)
	mFull := m / gemmMR * gemmMR
	for ir := 0; ir < mFull; ir += gemmMR {
		for jr := 0; jr < n; jr += gemmNR {
			bs := bp[jr*k : jr*k+gemmNR*k]
			kernelTile(k, a[ir:], lda, bs, c[jr*ldc+ir:], ldc, alpha, gemmMR, min(gemmNR, n-jr))
		}
	}
	if mFull < m {
		ap := scratch.Get(gemmMR * k)
		defer scratch.Put(ap)
		packA(NoTrans, m-mFull, k, alpha, a[mFull:], lda, ap)
		macroKernel(m-mFull, n, k, ap, bp, c[mFull:], ldc)
	}
}

// scaleCols scales the m-high leading rows of n columns of c by beta
// (beta == 0 overwrites, clearing NaN/Inf).
func scaleCols(n, m int, beta float64, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

// Dtrsm solves op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B
// (side == Right) for X, overwriting B. A is triangular. The driver halves
// the triangle recursively (see trsmLeft/trsmRight): each off-diagonal
// block is one packed Dgemm update, and only triangles of order <= triBase
// reach the unblocked kernels in level3unb.go. On the Left a Unit triangle
// of order 9 to 128 (trmmPassMax) is one packed pass on the microkernel
// instead (trsmPass), which covers every U task of CALU and the U12
// solves of RGETF2 and GETRF at block sizes up to 128: each 8x8 diagonal
// block of op(A) is inverted once, and each 8-row strip of X is its
// inverse times B's strip less the rows already solved. op(A)'s other
// triangle and its Unit diagonal are never read. Like Dtrmm's pass, this
// multiplies each 8x8 diagonal block zeros and all, so an Inf or NaN in B
// may spread as NaN to the other rows of its 8-row strip. The inverted
// block's entries are bounded by 2⁶ only when |op(A)(i, j)| <= 1, as in
// the L of partial pivoting; NonUnit Left solves, whose inverted blocks
// would have no bound, keep the recursion.
func Dtrsm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	if m < 0 || n < 0 || lda < max(1, na) || ldb < max(1, m) {
		panic(fmt.Errorf("%w: Dtrsm bad dims m=%d n=%d lda=%d ldb=%d", ErrShape, m, n, lda, ldb))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha != 1 {
		scaleCols(n, m, alpha, b, ldb)
	}
	if side == Left {
		trsmLeft(uplo, trans, diag, m, n, a, lda, b, ldb)
		return
	}
	trsmRight(uplo, trans, diag, m, n, a, lda, b, ldb)
}

// triBase is the largest triangle that the recursive Dtrsm and the
// Right-side Dtrmm hand to the unblocked kernels in level3unb.go: one MR
// register tile, below which a packed Dgemm would mostly multiply its own
// zero padding.
const triBase = 8

// triSplit returns the order of the leading diagonal block when a triangle
// of order n > triBase is halved: n/2 rounded down to a multiple of the
// register tile, and at least one tile.
func triSplit(n int) int {
	return max(triBase, n/2/triBase*triBase)
}

// offDiag returns the stored off-diagonal block of a triangle split after
// row/column n1: A21 (below the leading block) for Lower, A12 (right of it)
// for Upper. Applied with the caller's trans it is op(A)'s off-diagonal
// block, whichever triangle op(A) is.
func offDiag(uplo Uplo, n1 int, a []float64, lda int) []float64 {
	if uplo == Lower {
		return a[n1:]
	}
	return a[n1*lda:]
}

// trsmLeft solves op(A)*X = B in place for an m x m triangle against an
// m x n right-hand side. A triangle of one register tile goes to the
// unblocked kernel, and a larger Unit triangle of order at most
// trmmPassMax is one packed pass (trsmPass). Otherwise, with
// op(A) = [A11 0; A21 A22] (lower) it solves X1 = A11\B1, updates
// B2 -= A21*X1 and solves X2 = A22\B2; an upper op(A) runs the same steps
// bottom-up.
func trsmLeft(uplo Uplo, trans Transpose, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	if m <= triBase {
		trsmUnbLeft(uplo, trans, diag, m, n, a, lda, b, ldb)
		return
	}
	if diag == Unit && m <= trmmPassMax {
		trsmPass(uplo, trans, m, n, a, lda, b, ldb)
		return
	}
	m1 := triSplit(m)
	m2 := m - m1
	off := offDiag(uplo, m1, a, lda)
	a22, b2 := a[m1*lda+m1:], b[m1:]
	if (uplo == Lower) == (trans == NoTrans) {
		trsmLeft(uplo, trans, diag, m1, n, a, lda, b, ldb)
		Dgemm(trans, NoTrans, m2, n, m1, -1, off, lda, b, ldb, 1, b2, ldb)
		trsmLeft(uplo, trans, diag, m2, n, a22, lda, b2, ldb)
		return
	}
	trsmLeft(uplo, trans, diag, m2, n, a22, lda, b2, ldb)
	Dgemm(trans, NoTrans, m1, n, m2, -1, off, lda, b2, ldb, 1, b, ldb)
	trsmLeft(uplo, trans, diag, m1, n, a, lda, b, ldb)
}

// trsmRight solves X*op(A) = B in place for an n x n triangle against an
// m x n left-hand side. With op(A) = [A11 A12; 0 A22] (upper) it solves
// X1 = B1/A11, updates B2 -= X1*A12 and solves X2 = B2/A22; a lower op(A)
// runs the same steps right to left.
func trsmRight(uplo Uplo, trans Transpose, diag Diag, m, n int, a []float64, lda int, b []float64, ldb int) {
	if n <= triBase {
		trsmUnbRight(uplo, trans, diag, m, n, a, lda, b, ldb)
		return
	}
	n1 := triSplit(n)
	n2 := n - n1
	off := offDiag(uplo, n1, a, lda)
	a22, b2 := a[n1*lda+n1:], b[n1*ldb:]
	if (uplo == Upper) == (trans == NoTrans) {
		trsmRight(uplo, trans, diag, m, n1, a, lda, b, ldb)
		Dgemm(NoTrans, trans, m, n2, n1, -1, b, ldb, off, lda, 1, b2, ldb)
		trsmRight(uplo, trans, diag, m, n2, a22, lda, b2, ldb)
		return
	}
	trsmRight(uplo, trans, diag, m, n2, a22, lda, b2, ldb)
	Dgemm(NoTrans, trans, m, n1, n2, -1, b2, ldb, off, lda, 1, b, ldb)
	trsmRight(uplo, trans, diag, m, n1, a, lda, b, ldb)
}

// Dtrmm computes B = alpha*op(A)*B (side == Left) or B = alpha*B*op(A)
// (side == Right) for triangular A, overwriting B. Like Dtrsm, the driver
// halves the triangle recursively, and each off-diagonal contribution is
// one packed Dgemm, ordered so it reads only not-yet-overwritten parts of
// B. On the Right the diagonal blocks recurse down to the unblocked
// kernels. On the Left a triangle of order <= 128 (trmmPassMax) is one
// packed pass on the microkernel (trmmPass), which covers every Left
// Dtrmm of lapack.Larfb, GEQR3, TPMQRT and TTMQRT at block sizes up to
// 128. op(A)'s other triangle is never read, and neither is the diagonal
// when diag is Unit. The pass multiplies each 8-row strip of op(A) by B
// over a depth range that includes the strip's diagonal block, zeros and
// all, so an Inf or NaN in B may spread as NaN to the other rows of its
// 8-row strip. The factorizations never pass one: core's Prepare rejects
// non-finite input, and every ABFT check compares with !(x <= tol).
func Dtrmm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	if m < 0 || n < 0 || lda < max(1, na) || ldb < max(1, m) {
		panic(fmt.Errorf("%w: Dtrmm bad dims m=%d n=%d lda=%d ldb=%d", ErrShape, m, n, lda, ldb))
	}
	if m == 0 || n == 0 {
		return
	}
	if side == Left {
		trmmLeft(uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		return
	}
	trmmRight(uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

// trmmLeft computes B = alpha*op(A)*B in place. A triangle of order at
// most trmmPassMax is one packed pass (trmmPass); a larger one is halved.
// With op(A) upper, B1 = alpha*(A11*B1 + A12*B2) is formed first, while B2
// still holds its input; with op(A) lower, B2 = alpha*(A21*B1 + A22*B2)
// goes first.
func trmmLeft(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if m <= trmmPassMax {
		trmmPass(uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		return
	}
	m1 := triSplit(m)
	m2 := m - m1
	off := offDiag(uplo, m1, a, lda)
	a22, b2 := a[m1*lda+m1:], b[m1:]
	if (uplo == Upper) == (trans == NoTrans) {
		trmmLeft(uplo, trans, diag, m1, n, alpha, a, lda, b, ldb)
		Dgemm(trans, NoTrans, m1, n, m2, alpha, off, lda, b2, ldb, 1, b, ldb)
		trmmLeft(uplo, trans, diag, m2, n, alpha, a22, lda, b2, ldb)
		return
	}
	trmmLeft(uplo, trans, diag, m2, n, alpha, a22, lda, b2, ldb)
	Dgemm(trans, NoTrans, m2, n, m1, alpha, off, lda, b, ldb, 1, b2, ldb)
	trmmLeft(uplo, trans, diag, m1, n, alpha, a, lda, b, ldb)
}

// trmmRight computes B = alpha*B*op(A) in place. With op(A) upper, B2 =
// alpha*(B1*A12 + B2*A22) is formed first, while B1 still holds its input;
// with op(A) lower, B1 = alpha*(B1*A11 + B2*A21) goes first.
func trmmRight(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if n <= triBase {
		trmmUnbRight(uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		return
	}
	n1 := triSplit(n)
	n2 := n - n1
	off := offDiag(uplo, n1, a, lda)
	a22, b2 := a[n1*lda+n1:], b[n1*ldb:]
	if (uplo == Upper) == (trans == NoTrans) {
		trmmRight(uplo, trans, diag, m, n2, alpha, a22, lda, b2, ldb)
		Dgemm(NoTrans, trans, m, n2, n1, alpha, b, ldb, off, lda, 1, b2, ldb)
		trmmRight(uplo, trans, diag, m, n1, alpha, a, lda, b, ldb)
		return
	}
	trmmRight(uplo, trans, diag, m, n1, alpha, a, lda, b, ldb)
	Dgemm(NoTrans, trans, m, n1, n2, alpha, b2, ldb, off, lda, 1, b, ldb)
	trmmRight(uplo, trans, diag, m, n2, alpha, a22, lda, b2, ldb)
}
