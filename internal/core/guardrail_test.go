package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// TestNonFiniteRejected checks the pre-factorization scan: a NaN or an
// infinity anywhere fails CALU and CAQR with ErrNonFinite, naming its
// coordinate, before a is touched. The shapes end their columns in several
// tails of the vector scan, and the wide 10x30 has columns right of its
// square block, which the scan covers too. The bad entry sits in the first,
// middle or last row of a column; a second one later in column-major order
// (the next column's row 0, or the last row of the same column) must not
// be the one named.
func TestNonFiniteRejected(t *testing.T) {
	algs := []struct {
		name string
		run  func(*matrix.Dense) error
	}{
		{"CALU", func(a *matrix.Dense) error { _, err := CALU(a, Options{BlockSize: 5}); return err }},
		{"CAQR", func(a *matrix.Dense) error { _, err := CAQR(a, Options{BlockSize: 5}); return err }},
	}
	shapes := [][2]int{{1, 1}, {3, 2}, {17, 4}, {33, 3}, {20, 20}, {10, 30}}
	for si, sh := range shapes {
		m, n := sh[0], sh[1]
		for _, j := range []int{0, n / 2, n - 1} {
			for _, i := range []int{0, m / 2, m - 1} {
				seconds := [][2]int{{-1, -1}}
				if j+1 < n {
					seconds = append(seconds, [2]int{0, j + 1})
				}
				if i+1 < m {
					seconds = append(seconds, [2]int{m - 1, j})
				}
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					for _, second := range seconds {
						a := matrix.Random(m, n, int64(si+1))
						a.Set(i, j, bad)
						if second[0] >= 0 {
							a.Set(second[0], second[1], math.NaN())
						}
						want := fmt.Sprintf("A(%d,%d) = %v", i, j, bad)
						orig := slices.Clone(a.Data)
						for _, alg := range algs {
							err := alg.run(a)
							if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), want) {
								t.Fatalf("%s %dx%d with %v at (%d,%d), second at %v: err = %v, want ErrNonFinite naming %s",
									alg.name, m, n, bad, i, j, second, err, want)
							}
							if !slices.EqualFunc(a.Data, orig, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
								t.Fatalf("%s %dx%d with %v at (%d,%d): rejected input was modified", alg.name, m, n, bad, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestFiniteExtremesAccepted: finite entries at the ends of the range,
// +-MaxFloat64 and subnormals, pass the scan, which reports the largest as
// max|A|. CALU factors the input without error into finite factors. CAQR's
// column norms overflow on it, so it fails with ErrNonFinite naming the
// first non-finite diagonal entry of R.
func TestFiniteExtremesAccepted(t *testing.T) {
	const n = 20
	a := matrix.Random(n, n, 5)
	a.Set(3, 2, math.MaxFloat64)
	a.Set(7, 9, -math.MaxFloat64)
	a.Set(0, 4, math.SmallestNonzeroFloat64)
	a.Set(19, 11, -0x1p-1070)
	a.Set(12, 19, math.Copysign(0, -1))
	opt := Options{BlockSize: 5}
	_, maxA, _, err := prepareInput(a, &opt)
	if err != nil || maxA != math.MaxFloat64 {
		t.Fatalf("prepareInput = max %g, err %v; want max MaxFloat64, no error", maxA, err)
	}
	lu, err := CALU(a.Clone(), Options{BlockSize: 5})
	if err != nil {
		t.Fatalf("CALU: %v", err)
	}
	for k, v := range lu.A.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("CALU factor element %d = %v, want every entry finite", k, v)
		}
	}
	qr := a.Clone()
	_, err = CAQR(qr, Options{BlockSize: 5})
	j := 0
	for j < n-1 && math.Abs(qr.At(j, j)) <= math.MaxFloat64 {
		j++
	}
	want := fmt.Sprintf("R(%d,%d) = %v, the factorization overflowed", j, j, qr.At(j, j))
	if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), want) {
		t.Fatalf("CAQR: err = %v, want ErrNonFinite naming %s", err, want)
	}
}

// TestCAQRVerifyOverflowIsNonFinite is the regression test for a finite
// input that overflows CAQR under verify mode. The V task's checksum
// comparison sees the non-finite R first; it must fail the request with the
// permanent ErrNonFinite, naming the entry Finish names without verify,
// instead of reporting a corruption and failing with the retryable
// ErrCorrupted. CALU factors the same input into the same finite factor
// with verify on and off.
func TestCAQRVerifyOverflowIsNonFinite(t *testing.T) {
	a := matrix.Random(20, 20, 5)
	a.Set(3, 2, math.MaxFloat64)
	a.Set(7, 9, -math.MaxFloat64)
	_, plain := CAQR(a.Clone(), Options{BlockSize: 5})
	if !errors.Is(plain, ErrNonFinite) {
		t.Fatalf("CAQR without verify: err = %v, want ErrNonFinite", plain)
	}
	var corruptions atomic.Int32
	opt := Options{BlockSize: 5, Verify: true, OnCorruption: func(int) { corruptions.Add(1) }}
	_, err := CAQR(a.Clone(), opt)
	if !errors.Is(err, ErrNonFinite) || errors.Is(err, ErrCorrupted) || !strings.HasSuffix(err.Error(), plain.Error()) {
		t.Fatalf("CAQR with verify: err = %v, want ErrNonFinite ending %q", err, plain)
	}
	if n := corruptions.Load(); n != 0 {
		t.Fatalf("OnCorruption called %d times, want 0: overflow is not corruption", n)
	}
	lu, err := CALU(a.Clone(), Options{BlockSize: 5})
	if err != nil {
		t.Fatalf("CALU: %v", err)
	}
	luv, err := CALU(a.Clone(), Options{BlockSize: 5, Verify: true})
	if err != nil {
		t.Fatalf("CALU with verify: %v", err)
	}
	if !luv.A.Equal(lu.A) || !slices.Equal(luv.Ipiv, lu.Ipiv) {
		t.Fatal("CALU with verify differs from CALU without")
	}
}

// TestPrepareMaxA checks the max|A| Prepare hands the growth guardrail
// against a scalar loop over the leading min(m, n) columns, on tall,
// square and wide inputs, with and without verify mode's column sums,
// which must match a scalar sum of every column up to rounding. On the
// wide input a larger entry right of the square block must not count:
// the graph factors only the square block.
func TestPrepareMaxA(t *testing.T) {
	for _, sh := range [][2]int{{257, 13}, {40, 40}, {17, 45}} {
		m, n := sh[0], sh[1]
		a := matrix.Random(m, n, int64(m))
		a.Set(m/3, min(m, n)-1, -7.5) // the largest counted entry
		if n > m {
			a.Set(1, n-1, 1e6)
		}
		want := 0.0
		for j := 0; j < min(m, n); j++ {
			for _, v := range a.Col(j) {
				want = math.Max(want, math.Abs(v))
			}
		}
		for _, verify := range []bool{false, true} {
			opt := Options{Verify: verify}
			_, got, sums, err := prepareInput(a, &opt)
			if err != nil || got != want {
				t.Fatalf("%dx%d verify=%v: max|A| = %g, err %v; want %g", m, n, verify, got, err, want)
			}
			if verify != (sums != nil) {
				t.Fatalf("%dx%d verify=%v: column sums %v", m, n, verify, sums)
			}
			for j := range sums {
				want, abs := 0.0, 0.0
				for _, v := range a.Col(j) {
					want, abs = want+v, abs+math.Abs(v)
				}
				// Any two summation orders differ by at most this.
				if math.Abs(sums[j]-want) > float64(m)*0x1p-52*abs {
					t.Fatalf("%dx%d: column %d sum = %g, want %g", m, n, j, sums[j], want)
				}
			}
		}
	}
}

// TestGuardrailForcedFallbackMatchesGETRF forces the guardrail on every
// panel (threshold far below any real growth) and checks that CALU then
// degenerates to blocked GEPP: same permutation as GETRF with the same
// block size, same factor within stability tolerances, and every panel
// recorded in FallbackPanels.
func TestGuardrailForcedFallbackMatchesGETRF(t *testing.T) {
	const n, b = 60, 10
	orig := matrix.Random(n, n, 21)
	a := orig.Clone()
	res, err := CALU(a, Options{
		BlockSize: b, PanelThreads: 4, Workers: 3, Lookahead: true,
		GrowthThreshold: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := n / b; len(res.FallbackPanels) != want {
		t.Fatalf("FallbackPanels = %v, want all %d panels", res.FallbackPanels, want)
	}
	for k, p := range res.FallbackPanels {
		if p != k {
			t.Fatalf("FallbackPanels = %v, want ascending 0..%d", res.FallbackPanels, n/b-1)
		}
	}
	ref := orig.Clone()
	ipiv := make([]int, n)
	if err := lapack.GETRF(ref, ipiv, b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Ipiv, ipiv) {
		t.Fatalf("forced-fallback pivots %v differ from GETRF's %v", res.Ipiv, ipiv)
	}
	if !a.EqualApprox(ref, 1e-10) {
		t.Fatal("forced-fallback factor differs from GETRF")
	}
}

// TestGuardrailQuietOnBenignMatrix checks both off states: threshold zero
// disables the monitor, and a generous threshold never trips on a random
// (well-conditioned in growth terms) matrix — the factorization is the
// plain tournament one.
func TestGuardrailQuietOnBenignMatrix(t *testing.T) {
	orig := matrix.Random(48, 48, 8)
	plain := orig.Clone()
	if _, err := CALU(plain, Options{BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true}); err != nil {
		t.Fatal(err)
	}
	for _, thr := range []float64{0, 1e6} {
		a := orig.Clone()
		res, err := CALU(a, Options{
			BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true,
			GrowthThreshold: thr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FallbackPanels) != 0 {
			t.Fatalf("threshold %g: unexpected fallbacks %v", thr, res.FallbackPanels)
		}
		if !a.Equal(plain) {
			t.Fatalf("threshold %g: armed-but-quiet guardrail changed the factor", thr)
		}
	}
}

// wilkinson builds the classic GEPP worst case: unit diagonal, -1 strictly
// below it, +1 in the last column. Element growth under partial pivoting is
// 2^(n-1), so the first panel's U alone exhibits 2^(b-1) growth while
// max|A| = 1 — a crafted trigger for any reasonable threshold.
func wilkinson(n int) *matrix.Dense {
	a := matrix.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		a.Set(i, n-1, 1)
		for j := 0; j < i; j++ {
			a.Set(i, j, -1)
		}
	}
	return a
}

// TestGuardrailTripsOnHighGrowth checks the acceptance scenario end to end:
// a crafted high-growth matrix trips the monitor at a moderate threshold,
// the fallback panel is observable both in FallbackPanels and in the task
// trace (the finalize task's label carries the gepp-fallback marker), and
// the factorization still solves to GEPP-level accuracy.
func TestGuardrailTripsOnHighGrowth(t *testing.T) {
	const n, b = 32, 8
	orig := wilkinson(n)
	a := orig.Clone()
	res, err := CALU(a, Options{
		BlockSize: b, PanelThreads: 2, Workers: 2, Lookahead: true,
		GrowthThreshold: 4, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FallbackPanels) == 0 {
		t.Fatal("high-growth matrix tripped no fallback")
	}
	marked := 0
	for _, task := range res.Graph.Tasks() {
		if task.Kind == sched.KindP && strings.Contains(task.Label, "[gepp-fallback]") {
			marked++
		}
	}
	if marked != len(res.FallbackPanels) {
		t.Fatalf("%d tasks carry the fallback marker, want %d", marked, len(res.FallbackPanels))
	}
	if len(res.Events) == 0 {
		t.Fatal("Trace produced no events")
	}
	// Residual check: P*A = L*U still holds (growth 2^(n-1) is inherent to
	// partial pivoting on this matrix, but the factorization must stay
	// exact in the backward sense, scaled by max|U| rather than max|A|).
	l, u := lapack.ExtractLU(a)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	pa := orig.Clone()
	lapack.LASWP(pa, res.Ipiv, 0, len(res.Ipiv))
	diff := 0.0
	for j := 0; j < n; j++ {
		x, y := pa.Col(j), prod.Col(j)
		for i := range x {
			diff = math.Max(diff, math.Abs(x[i]-y[i]))
		}
	}
	if diff > 1e-10*math.Pow(2, n-1) {
		t.Fatalf("fallback factorization residual %g", diff)
	}
}
