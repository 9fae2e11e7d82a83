package lapack

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/scratch"
)

// TPQRT computes the QR factorization of the stacked pair
//
//	[ R ]   b x b, upper triangular
//	[ B ]   m x b, dense
//
// in place: R is overwritten with the new upper-triangular factor, B with
// the reflector tails V2 (the top part of each reflector is implicitly the
// identity column e_j, exploiting R's triangularity), and t (b x b) with
// the compact-WY factor. This is LAPACK's dtpqrt with a square B — the
// structured "triangle on top of square" kernel PLASMA's TSQRT implements,
// costing ~2*m*b^2 flops instead of the ~2*(m+b)*b^2 + (2/3)b^3 of a dense
// stacked QR, and requiring no gather/scatter of the operands.
func TPQRT(r, b, t *matrix.Dense) {
	bw := r.Cols
	if r.Rows != bw {
		panic(fmt.Errorf("%w: TPQRT R is %dx%d, want square", ErrShape, r.Rows, r.Cols))
	}
	if b.Cols != bw {
		panic(fmt.Errorf("%w: TPQRT B has %d cols, want %d", ErrShape, b.Cols, bw))
	}
	if t.Rows != bw || t.Cols != bw {
		panic(fmt.Errorf("%w: TPQRT T is %dx%d, want %dx%d", ErrShape, t.Rows, t.Cols, bw, bw))
	}
	m := b.Rows
	t.Zero()
	tau := make([]float64, bw)
	for j := 0; j < bw; j++ {
		// Reflector j annihilates B(:, j) against R(j, j). Its vector is
		// [e_j; v2] with v2 dense of length m.
		v2 := b.Col(j)
		beta, tj := Larfg(r.At(j, j), v2)
		r.Set(j, j, beta)
		tau[j] = tj
		if tj == 0 {
			continue
		}
		// Apply H_j to the remaining columns of [R; B]:
		// w = R(j, jj) + v2^T B(:, jj); R(j, jj) -= tau*w; B(:, jj) -= tau*w*v2.
		for jj := j + 1; jj < bw; jj++ {
			cj := b.Col(jj)
			w := r.At(j, jj)
			for i := 0; i < m; i++ {
				w += v2[i] * cj[i]
			}
			tw := tj * w
			r.Set(j, jj, r.At(j, jj)-tw)
			for i := 0; i < m; i++ {
				cj[i] -= tw * v2[i]
			}
		}
	}
	// Form T: T(0:i, i) = -tau_i * T(0:i, 0:i) * (V2(:, 0:i)^T v2_i); the
	// identity tops contribute nothing for i != j.
	for i := 0; i < bw; i++ {
		t.Set(i, i, tau[i])
		if i == 0 || tau[i] == 0 {
			continue
		}
		tcol := t.Col(i)[:i]
		vi := b.Col(i)
		v2sub := b.View(0, 0, m, i)
		blas.Dgemv(blas.Trans, m, i, -tau[i], v2sub.Data, v2sub.Stride, vi, 1, 0, tcol, 1)
		blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t.Data, t.Stride, tcol, 1)
	}
}

// TPMQRT applies the orthogonal factor from TPQRT (or its transpose) to a
// stacked pair [C1; C2] from the left, in place: C1 is b x n, C2 is m x n,
// v and t are the B-part reflectors and compact-WY factor from TPQRT.
// Because the reflector tops are identity columns, the update is simply
//
//	W  = op(T) * (C1 + V2^T C2)
//	C1 -= W
//	C2 -= V2 * W
//
// with no triangular multiplies on the C1 side — the structured savings
// PLASMA's TSMQR realizes.
func TPMQRT(trans blas.Transpose, v, t, c1, c2 *matrix.Dense) {
	bw := v.Cols
	if c1.Rows != bw {
		panic(fmt.Errorf("%w: TPMQRT C1 has %d rows, want %d", ErrShape, c1.Rows, bw))
	}
	if c2.Rows != v.Rows {
		panic(fmt.Errorf("%w: TPMQRT C2 has %d rows, want %d", ErrShape, c2.Rows, v.Rows))
	}
	if c1.Cols != c2.Cols {
		panic(fmt.Errorf("%w: TPMQRT C1/C2 col mismatch %d vs %d", ErrShape, c1.Cols, c2.Cols))
	}
	n := c1.Cols
	if n == 0 || bw == 0 {
		return
	}
	// W = C1 + V2^T C2, in pooled workspace as in Larfb.
	w := scratch.Dense(bw, n)
	defer scratch.Release(w)
	w.CopyFrom(c1)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, v, c2, 1, w)
	// W = op(T) W. Q = I - V T V^T, so Q uses T and Q^T uses T^T.
	tOp := blas.NoTrans
	if trans == blas.Trans {
		tOp = blas.Trans
	}
	blas.Trmm(blas.Left, blas.Upper, tOp, blas.NonUnit, 1, t, w)
	// C1 -= W; C2 -= V2 W.
	for j := 0; j < n; j++ {
		cj, wj := c1.Col(j), w.Col(j)
		for i := range cj {
			cj[i] -= wj[i]
		}
	}
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v, w, 1, c2)
}

// TTQRT computes the QR factorization of two stacked b x b upper-triangular
// factors
//
//	[ R1 ]
//	[ R2 ]
//
// in place, exploiting R2's triangularity: the reflector annihilating
// column j of R2 has only j+1 nonzero tail entries, so V2 is itself upper
// triangular and overwrites R2 exactly. This is the triangle-on-triangle
// kernel (PLASMA's TTQRT) that makes TSQR tree merges cost ~(2/3)b^3 flops
// instead of the ~(10/3)b^3 of a dense stacked QR — the optimization the
// paper's conclusion anticipates for CAQR.
func TTQRT(r1, r2, t *matrix.Dense) {
	bw := r1.Cols
	if r1.Rows != bw || r2.Rows != bw || r2.Cols != bw {
		panic(fmt.Errorf("%w: TTQRT wants two %dx%d triangles", ErrShape, bw, bw))
	}
	if t.Rows != bw || t.Cols != bw {
		panic(fmt.Errorf("%w: TTQRT T is %dx%d want %dx%d", ErrShape, t.Rows, t.Cols, bw, bw))
	}
	t.Zero()
	tau := make([]float64, bw)
	for j := 0; j < bw; j++ {
		// Tail = R2(0:j+1, j), head = R1(j, j).
		tail := r2.Col(j)[:j+1]
		beta, tj := Larfg(r1.At(j, j), tail)
		r1.Set(j, j, beta)
		tau[j] = tj
		if tj == 0 {
			continue
		}
		// Apply H_j to the remaining columns of [R1; R2] (only the first
		// j+1 rows of R2 participate).
		for jj := j + 1; jj < bw; jj++ {
			cj := r2.Col(jj)
			w := r1.At(j, jj)
			for i := 0; i <= j; i++ {
				w += tail[i] * cj[i]
			}
			tw := tj * w
			r1.Set(j, jj, r1.At(j, jj)-tw)
			for i := 0; i <= j; i++ {
				cj[i] -= tw * tail[i]
			}
		}
	}
	// T(0:i, i) = -tau_i * T * (V2(:, 0:i)^T v2_i); column j of V2 has
	// rows 0..j, a subset of v2_i's rows 0..i for j < i.
	for i := 0; i < bw; i++ {
		t.Set(i, i, tau[i])
		if i == 0 || tau[i] == 0 {
			continue
		}
		tcol := t.Col(i)[:i]
		vi := r2.Col(i)
		for j := 0; j < i; j++ {
			vj := r2.Col(j)
			s := 0.0
			for r := 0; r <= j; r++ {
				s += vj[r] * vi[r]
			}
			tcol[j] = -tau[i] * s
		}
		blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t.Data, t.Stride, tcol, 1)
	}
}

// TTMQRT applies the orthogonal factor from TTQRT (or its transpose) to a
// stacked pair [C1; C2] from the left, in place. v2 is the upper-triangular
// reflector block TTQRT left in R2's place and t its compact-WY factor;
// both C1 and C2 are b x n.
func TTMQRT(trans blas.Transpose, v2, t, c1, c2 *matrix.Dense) {
	bw := v2.Cols
	if c1.Rows != bw || c2.Rows != bw {
		panic(fmt.Errorf("%w: TTMQRT C rows %d/%d want %d", ErrShape, c1.Rows, c2.Rows, bw))
	}
	if c1.Cols != c2.Cols {
		panic(fmt.Errorf("%w: TTMQRT C1/C2 col mismatch %d vs %d", ErrShape, c1.Cols, c2.Cols))
	}
	n := c1.Cols
	if n == 0 || bw == 0 {
		return
	}
	// W = C1 + V2^T C2; V2 is upper triangular with explicit diagonal. W
	// is pooled workspace, as in Larfb.
	w := scratch.Dense(bw, n)
	defer scratch.Release(w)
	w.CopyFrom(c2)
	blas.Trmm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, v2, w)
	for j := 0; j < n; j++ {
		wj, cj := w.Col(j), c1.Col(j)
		for i := range wj {
			wj[i] += cj[i]
		}
	}
	tOp := blas.NoTrans
	if trans == blas.Trans {
		tOp = blas.Trans
	}
	blas.Trmm(blas.Left, blas.Upper, tOp, blas.NonUnit, 1, t, w)
	// C1 -= W; C2 -= V2 W.
	for j := 0; j < n; j++ {
		wj, cj := w.Col(j), c1.Col(j)
		for i := range wj {
			cj[i] -= wj[i]
		}
	}
	blas.Trmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, v2, w)
	for j := 0; j < n; j++ {
		wj, cj := w.Col(j), c2.Col(j)
		for i := range wj {
			cj[i] -= wj[i]
		}
	}
}
