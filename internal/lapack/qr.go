package lapack

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/scratch"
)

// Larfg generates an elementary Householder reflector H = I - tau*v*v^T
// with v[0] = 1 such that H * [alpha; x] = [beta; 0]. It returns beta and
// tau and overwrites x with the tail of v. When x is already zero it returns
// tau = 0 (H = I), matching LAPACK dlarfg.
func Larfg(alpha float64, x []float64) (beta, tau float64) {
	xnorm := blas.Dnrm2(len(x), x, 1)
	if xnorm == 0 {
		return alpha, 0
	}
	beta = -math.Copysign(dlapy2(alpha, xnorm), alpha)
	tau = (beta - alpha) / beta
	scale := 1 / (alpha - beta)
	blas.Dscal(len(x), scale, x, 1)
	return beta, tau
}

// dlapy2 returns sqrt(x^2 + y^2) without intermediate overflow.
func dlapy2(x, y float64) float64 {
	ax, ay := math.Abs(x), math.Abs(y)
	w, z := ax, ay
	if ay > ax {
		w, z = ay, ax
	}
	if z == 0 {
		return w
	}
	r := z / w
	return w * math.Sqrt(1+r*r)
}

// GEQR2 computes the unblocked Householder QR factorization of the m x n
// matrix a (the algorithm behind the paper's MKL_dgeqr2 baseline). On return
// the upper triangle holds R and the columns below the diagonal hold the
// reflector vectors; tau must have length min(m, n).
func GEQR2(a *matrix.Dense, tau []float64) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) != k {
		panic(fmt.Errorf("%w: GEQR2 tau length %d want %d", ErrShape, len(tau), k))
	}
	for j := 0; j < k; j++ {
		col := a.Col(j)
		beta, t := Larfg(col[j], col[j+1:m])
		tau[j] = t
		col[j] = beta
		if j < n-1 && t != 0 {
			applyReflectorLeft(a, j, t)
		}
	}
}

// applyReflectorLeft applies H = I - tau*v*v^T (v stored in column j of a,
// rows j..m with implicit v[j] = 1) to a(j:m, j+1:n) from the left. Each
// column c is updated while it is still in cache from its own dot product:
// c -= tau*(v^T c)*v, one Ddot and one Daxpy.
func applyReflectorLeft(a *matrix.Dense, j int, tau float64) {
	m := a.Rows
	v := a.Col(j)[j:m]
	save := v[0]
	v[0] = 1
	for c := j + 1; c < a.Cols; c++ {
		col := a.Col(c)[j:m]
		blas.Daxpy(len(v), -tau*blas.Ddot(len(v), v, 1, col, 1), v, 1, col, 1)
	}
	v[0] = save
}

// Larft forms the upper-triangular block-reflector factor T of the compact
// WY representation Q = I - V*T*V^T from the k reflectors stored in the
// columns of v (m x k, unit lower trapezoidal, garbage above the diagonal
// ignored) and their scalars tau. t must be k x k and is overwritten.
// This is LAPACK dlarft with DIRECT='F', STOREV='C'.
func Larft(v *matrix.Dense, tau []float64, t *matrix.Dense) {
	m, k := v.Rows, v.Cols
	if t.Rows != k || t.Cols != k {
		panic(fmt.Errorf("%w: Larft T is %dx%d want %dx%d", ErrShape, t.Rows, t.Cols, k, k))
	}
	if len(tau) != k {
		panic(fmt.Errorf("%w: Larft tau length %d want %d", ErrShape, len(tau), k))
	}
	t.Zero()
	for i := 0; i < k; i++ {
		ti := tau[i]
		t.Set(i, i, ti)
		if i == 0 || ti == 0 {
			continue
		}
		// T(0:i, i) = -tau[i] * V(i:m, 0:i)^T * v_i, then T(0:i, i) =
		// T(0:i, 0:i) * T(0:i, i).
		tcol := t.Col(i)[:i]
		// v_i = [1; V(i+1:m, i)], V(i, 0:i) is a dense row.
		for j := 0; j < i; j++ {
			tcol[j] = -ti * v.At(i, j)
		}
		if i+1 < m {
			vsub := v.View(i+1, 0, m-i-1, i)
			vi := v.Col(i)[i+1 : m]
			blas.Dgemv(blas.Trans, m-i-1, i, -ti, vsub.Data, vsub.Stride, vi, 1, 1, tcol, 1)
		}
		blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t.Data, t.Stride, tcol, 1)
	}
}

// Larfb applies the compact-WY block reflector Q = I - V*T*V^T (or its
// transpose) to c from the left: c = op(Q) * c. v is m x k unit lower
// trapezoidal (entries on and above the diagonal are ignored), t is the
// k x k triangular factor from Larft, and c is m x n.
func Larfb(trans blas.Transpose, v, t, c *matrix.Dense) {
	m, k := v.Rows, v.Cols
	if c.Rows != m {
		panic(fmt.Errorf("%w: Larfb C rows %d want %d", ErrShape, c.Rows, m))
	}
	// Return before taking the row views: a C with no columns may have no
	// data (matrix.New(m, 0)), and its C2 view would slice past the end.
	if c.Cols == 0 || k == 0 {
		return
	}
	LarfbSplit(trans, v, t, c.View(0, 0, k, c.Cols), c.View(k, 0, m-k, c.Cols))
}

// LarfbSplit is Larfb with C given as two row blocks that need not be
// adjacent: c1 holds C's first k rows, the ones V's unit triangle V1
// meets, and c2 the other m - k, which V2 meets. TSQR applies its tree
// nodes this way to the carriers' rows where they lie in the panel.
func LarfbSplit(trans blas.Transpose, v, t, c1, c2 *matrix.Dense) {
	m, k := v.Rows, v.Cols
	n := c1.Cols
	if c1.Rows != k || c2.Rows != m-k || c2.Cols != n {
		panic(fmt.Errorf("%w: LarfbSplit C blocks %dx%d and %dx%d want %d and %d rows of one width", ErrShape, c1.Rows, c1.Cols, c2.Rows, c2.Cols, k, m-k))
	}
	if n == 0 || k == 0 {
		return
	}
	// W = V^T C = V1^T C1 + V2^T C2, with V1 the unit lower triangle. W is
	// pooled workspace: every CAQR update task and GEQR3 node applies one.
	w := scratch.Dense(k, n)
	defer scratch.Release(w)
	w.CopyFrom(c1)
	v1, v2 := v.View(0, 0, k, k), v.View(k, 0, m-k, k)
	blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
	if m > k {
		blas.Gemm(blas.Trans, blas.NoTrans, 1, v2, c2, 1, w)
	}
	// W = op(T)^T W — note Q = I - V T V^T so Q^T = I - V T^T V^T: applying
	// Q uses T, applying Q^T uses T^T.
	tOp := blas.NoTrans
	if trans == blas.Trans {
		tOp = blas.Trans
	}
	blas.Trmm(blas.Left, blas.Upper, tOp, blas.NonUnit, 1, t, w)
	// C = C - V W.
	if m > k {
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v2, w, 1, c2)
	}
	blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
	for j := 0; j < n; j++ {
		blas.Daxpy(k, -1, w.Col(j), 1, c1.Col(j), 1)
	}
}

// GEQRF computes the blocked Householder QR factorization of a with panel
// width nb (the algorithm behind the paper's MKL_dgeqrf baseline, run
// sequentially). Output convention matches GEQR2.
func GEQRF(a *matrix.Dense, tau []float64, nb int) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) != k {
		panic(fmt.Errorf("%w: GEQRF tau length %d want %d", ErrShape, len(tau), k))
	}
	if nb < 1 {
		panic(fmt.Errorf("%w: GEQRF block size %d", ErrShape, nb))
	}
	t := matrix.New(nb, nb)
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		panel := a.View(j, j, m-j, jb)
		GEQR2(panel, tau[j:j+jb])
		if j+jb < n {
			tj := t.View(0, 0, jb, jb)
			Larft(panel, tau[j:j+jb], tj)
			trail := a.View(j, j+jb, m-j, n-j-jb)
			Larfb(blas.Trans, panel, tj, trail)
		}
	}
}

// GEQR3 computes the QR factorization of the m x n matrix a (m >= n) with
// the recursive algorithm of Elmroth and Gustavson — the "dgeqr3" kernel
// the paper uses at the leaves of the TSQR reduction tree. Unlike GEQRF it
// returns the full n x n block-reflector factor T, so the result can be
// applied with a single Larfb. tau must have length n and t must be n x n.
func GEQR3(a *matrix.Dense, tau []float64, t *matrix.Dense) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Errorf("%w: GEQR3 requires m >= n, got %dx%d", ErrShape, m, n))
	}
	if len(tau) != n {
		panic(fmt.Errorf("%w: GEQR3 tau length %d want %d", ErrShape, len(tau), n))
	}
	if t.Rows != n || t.Cols != n {
		panic(fmt.Errorf("%w: GEQR3 T is %dx%d want %dx%d", ErrShape, t.Rows, t.Cols, n, n))
	}
	if n == 0 {
		return
	}
	if n <= panelBase {
		GEQR2(a, tau)
		Larft(a, tau, t)
		return
	}
	n1 := panelSplit(n)
	n2 := n - n1
	// Factor the left half: A1 = Q1 R1.
	a1 := a.View(0, 0, m, n1)
	t1 := t.View(0, 0, n1, n1)
	GEQR3(a1, tau[:n1], t1)
	// A2 = Q1^T A2.
	a2 := a.View(0, n1, m, n2)
	Larfb(blas.Trans, a1, t1, a2)
	// Factor the bottom-right part: A2(n1:m, :) = Q2 R2.
	a2b := a.View(n1, n1, m-n1, n2)
	t2 := t.View(n1, n1, n2, n2)
	GEQR3(a2b, tau[n1:], t2)
	// T12 = -T1 * (V1^T V2) * T2, where V2 occupies rows n1..m.
	t12 := t.View(0, n1, n1, n2)
	// V1 rows n1..n1+n2 hit V2's unit triangle; the rest is a plain GEMM.
	v1a := a.View(n1, 0, n2, n1)  // rows of V1 aligned with V2's triangle
	v2a := a.View(n1, n1, n2, n2) // V2's unit lower triangle (with R2 above)
	for jj := 0; jj < n2; jj++ {  // t12 = v1a^T, transposed copy
		col := t12.Col(jj)
		for ii := 0; ii < n1; ii++ {
			col[ii] = v1a.At(jj, ii)
		}
	}
	blas.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, 1, v2a, t12)
	if m > n1+n2 {
		v1b := a.View(n1+n2, 0, m-n1-n2, n1)
		v2b := a.View(n1+n2, n1, m-n1-n2, n2)
		blas.Gemm(blas.Trans, blas.NoTrans, 1, v1b, v2b, 1, t12)
	}
	blas.Trmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, -1, t1, t12)
	blas.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t2, t12)
}

// ORGQR forms the leading k columns of the orthogonal matrix Q from the
// reflectors produced by GEQR2/GEQRF/GEQR3 stored in a (m x n) and tau.
// It returns a fresh m x k matrix, k <= n.
func ORGQR(a *matrix.Dense, tau []float64, k int) *matrix.Dense {
	m, n := a.Rows, a.Cols
	if k > n || k < 0 {
		panic(fmt.Errorf("%w: ORGQR k=%d out of range n=%d", ErrShape, k, n))
	}
	q := matrix.New(m, k)
	for i := 0; i < k; i++ {
		q.Set(i, i, 1)
	}
	// Apply H1 H2 ... Hkk to I from the left, in reverse order.
	kk := min(len(tau), min(m, n))
	work := make([]float64, k)
	for j := kk - 1; j >= 0; j-- {
		if tau[j] == 0 {
			continue
		}
		v := a.Col(j)[j:m]
		save := v[0]
		v[0] = 1
		sub := q.View(j, 0, m-j, k)
		blas.Dgemv(blas.Trans, m-j, k, 1, sub.Data, sub.Stride, v, 1, 0, work, 1)
		blas.Dger(m-j, k, -tau[j], v, 1, work, 1, sub.Data, sub.Stride)
		v[0] = save
	}
	return q
}

// ExtractR returns a copy of the upper-triangular (m >= n) or
// upper-trapezoidal (m < n) factor R, k x n with k = min(m, n), of an
// in-place QR factorization; zeros below the diagonal.
func ExtractR(a *matrix.Dense) *matrix.Dense {
	k := min(a.Rows, a.Cols)
	r := matrix.New(k, a.Cols)
	for j := 0; j < a.Cols; j++ {
		copy(r.Col(j), a.Col(j)[:min(j+1, k)])
	}
	return r
}

// ORMQR applies Q (or Q^T) from a blocked QR factorization (GEQR2/GEQRF/
// GEQR3 output in a, scalars in tau) to the matrix c from the left,
// processing the reflectors in compact-WY blocks of width nb. It is the
// general "multiply by Q without forming it" routine (LAPACK dormqr,
// side='L').
func ORMQR(trans blas.Transpose, a *matrix.Dense, tau []float64, nb int, c *matrix.Dense) {
	m, n := a.Rows, a.Cols
	k := min(min(m, n), len(tau))
	if c.Rows != m {
		panic(fmt.Errorf("%w: ORMQR C rows %d want %d", ErrShape, c.Rows, m))
	}
	if nb < 1 {
		panic(fmt.Errorf("%w: ORMQR block size %d", ErrShape, nb))
	}
	t := matrix.New(nb, nb)
	// Q = H_1 H_2 ... H_k. Q^T C applies blocks forward; Q C backward.
	if trans == blas.Trans {
		for j := 0; j < k; j += nb {
			jb := min(nb, k-j)
			applyOrmqrBlock(trans, a, tau, t, j, jb, c)
		}
		return
	}
	start := ((k - 1) / nb) * nb
	for j := start; j >= 0; j -= nb {
		jb := min(nb, k-j)
		applyOrmqrBlock(trans, a, tau, t, j, jb, c)
	}
}

func applyOrmqrBlock(trans blas.Transpose, a *matrix.Dense, tau []float64, t *matrix.Dense, j, jb int, c *matrix.Dense) {
	m := a.Rows
	v := a.View(j, j, m-j, jb)
	tj := t.View(0, 0, jb, jb)
	Larft(v, tau[j:j+jb], tj)
	sub := c.View(j, 0, m-j, c.Cols)
	Larfb(trans, v, tj, sub)
}
