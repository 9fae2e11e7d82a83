//go:build !race

// The race detector instruments allocations, so the zero-alloc gates only
// run in the regular test job; the CI alloc-gate step invokes them by name
// (-run ZeroAlloc).

package blas

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/scratch"
)

// onEveryTile runs f once per register tile this host can run, each as a
// subtest named after its tile.
func onEveryTile(t *testing.T, f func(t *testing.T)) {
	for _, name := range Tiles() {
		t.Run(name, func(t *testing.T) {
			defer ForceTile(name)()
			f(t)
		})
	}
}

// TestDgemmZeroAlloc pins the packed Dgemm steady state to zero heap
// allocations on every tile: pack buffers come from internal/scratch and
// go back, and the box-pooled headers make the round trip free. This is
// the runtime complement of calint's hotpath-alloc check.
func TestDgemmZeroAlloc(t *testing.T) {
	const n = 512
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.5
		b[i] = float64(i%5) * 0.25
	}
	run := func() {
		Dgemm(NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
	}
	onEveryTile(t, func(t *testing.T) {
		// Warm the scratch pools (first run allocates the pack buffers and
		// their header boxes; every later run reuses them).
		run()
		run()
		if avg := testing.AllocsPerRun(10, run); avg != 0 {
			t.Fatalf("Dgemm(%d×%d) allocates %.1f objects per call in steady state, want 0", n, n, avg)
		}
	})
}

// TestGemmInPlaceZeroAlloc pins Dgemm's in-place-A path (gemmInPlace) to
// zero steady-state allocations on every tile, on GEQR3's C2 -= V2*W shape
// at the tall leaf, with fringe rows and an NR fringe column so every
// branch runs: packed B and the fringe rows' packed A come from
// internal/scratch, and the fringe tile lives on the stack.
func TestGemmInPlaceZeroAlloc(t *testing.T) {
	const m, n, k = 2503, 51, 48
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = float64(i%7) * 0.5
	}
	for i := range b {
		b[i] = float64(i%5) * 0.25
	}
	run := func() {
		Dgemm(NoTrans, NoTrans, m, n, k, -1, a, m, b, k, 0, c, m)
	}
	onEveryTile(t, func(t *testing.T) {
		run()
		run()
		if avg := testing.AllocsPerRun(10, run); avg != 0 {
			t.Fatalf("Dgemm(%d×%d×%d) allocates %.1f objects per call in steady state, want 0", m, n, k, avg)
		}
	})
}

// TestPackedGemmZeroAlloc pins a CALU S task's operand round trip to zero
// steady-state allocations on every tile: the L task's Pack of A, the U
// task's Pack of B, the S task's GemmPacked and the Releases that return
// both buffers to internal/scratch. It runs the square S task's 231 x 100
// x 100 on the packed path, and 231 x 48 x 48 with operands packed for a
// wider B, which GemmPacked runs on the views with A read in place.
func TestPackedGemmZeroAlloc(t *testing.T) {
	onEveryTile(t, func(t *testing.T) {
		for _, s := range []struct{ m, n, k int }{{231, 100, 100}, {231, 48, 48}} {
			a := matrix.Random(s.m, s.k, 1)
			b := matrix.Random(s.k, s.n, 2)
			c := matrix.New(s.m, s.n)
			var pa PackedA
			var pb PackedB
			run := func() {
				pa.Pack(-1, a, 100, 1)
				pb.Pack(b, s.m, 1)
				GemmPacked(&pa, &pb, c)
				pa.Release()
				pb.Release()
			}
			run()
			run()
			if avg := testing.AllocsPerRun(10, run); avg != 0 {
				t.Fatalf("Pack, GemmPacked and Release (%d×%d×%d) allocate %.1f objects per round in steady state, want 0", s.m, s.n, s.k, avg)
			}
		}
	})
}

// TestLevel12ZeroAlloc pins the level-1 and level-2 routines behind the
// panel bases (GEQR2, GETF2, Larft) and the ABFT checksums to zero
// allocations on the tall leaf's 2500-row columns.
func TestLevel12ZeroAlloc(t *testing.T) {
	const m, n = 2500, 8
	a := make([]float64, m*n)
	x := make([]float64, m)
	y := make([]float64, n)
	for i := range a {
		a[i] = float64(i%7) * 0.01
	}
	for i := range x {
		x[i] = float64(i%5) * 0.25
	}
	sink := 0.0
	run := func() {
		sink += Ddot(m, x, 1, a, 1)
		sink += Dsum(a[:m])
		sink += Damax(a[:m])
		Daxpy(m, 0.5, x, 1, a, 1)
		Dscal(m, 0.5, a, 1)
		sink += float64(Idamax(m, a, 1))
		sink += Dnrm2(m, a, 1)
		Dgemv(Trans, m, n, 1, a, m, x, 1, 0, y, 1)
		Dgemv(NoTrans, m, n, 1, a, m, y, 1, 0.5, x, 1)
		Dger(m, n, -1e-3, x, 1, y, 1, a, m)
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("level-1/2 routines allocate %.1f objects per round in steady state, want 0", avg)
	}
	_ = sink
}

// TestDtrsmZeroAlloc pins the recursive Dtrsm to zero steady-state
// allocations on the CALU L-task shape: the recursion only reslices, and
// its Dgemm updates take their pack buffers from internal/scratch. It
// then pins every Unit Left variant at the U task's order 100 (the packed
// pass, whose packed triangle and B strip come from internal/scratch and
// whose fringe tiles live on the stack) against 100 columns and a width
// past trmmPassNC, on every tile.
func TestDtrsmZeroAlloc(t *testing.T) {
	const m, n = 2500, 100
	a, b := dominantTriangle(n, m*n)
	run := func() {
		Dtrsm(Right, Upper, NoTrans, NonUnit, m, n, 1, a, n, b, m)
	}
	run()
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("Dtrsm(%d×%d) allocates %.1f objects per call in steady state, want 0", m, n, avg)
	}
	const order = 100
	onEveryTile(t, func(t *testing.T) {
		for _, n := range []int{order, trmmPassNC + 3} {
			a, b := dominantTriangle(order, order*n)
			for _, uplo := range []Uplo{Upper, Lower} {
				for _, trans := range []Transpose{NoTrans, Trans} {
					run := func() {
						Dtrsm(Left, uplo, trans, Unit, order, n, 1, a, order, b, order)
					}
					run()
					run()
					if avg := testing.AllocsPerRun(10, run); avg != 0 {
						t.Fatalf("Dtrsm(Left, %v, %v, Unit, %d×%d) allocates %.1f objects per call in steady state, want 0",
							uplo, trans, order, n, avg)
					}
				}
			}
		}
	})
}

// TestDtrmmZeroAlloc is the Dtrmm counterpart: every Left variant at
// Larfb's order 100 (the packed pass, whose packed triangle and B block
// come from internal/scratch and whose fringe tiles live on the stack),
// against Larfb's 100 columns and a width past the pass's column block,
// on every tile.
func TestDtrmmZeroAlloc(t *testing.T) {
	const m = 100
	onEveryTile(t, func(t *testing.T) {
		for _, n := range []int{m, trmmPassNC + 3} {
			a, b := dominantTriangle(m, m*n)
			for _, uplo := range []Uplo{Upper, Lower} {
				for _, trans := range []Transpose{NoTrans, Trans} {
					for _, diag := range []Diag{NonUnit, Unit} {
						run := func() {
							Dtrmm(Left, uplo, trans, diag, m, n, 1, a, m, b, m)
						}
						run()
						run()
						if avg := testing.AllocsPerRun(10, run); avg != 0 {
							t.Fatalf("Dtrmm(Left, %v, %v, %v, %d×%d) allocates %.1f objects per call in steady state, want 0",
								uplo, trans, diag, m, n, avg)
						}
					}
				}
			}
		}
	})
}

// dominantTriangle returns an n x n triangle-bearing matrix with a dominant
// diagonal (so repeated solves stay finite) and a right-hand side of size
// nb.
func dominantTriangle(n, nb int) (a, b []float64) {
	a = make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.01
	}
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	b = make([]float64, nb)
	for i := range b {
		b[i] = float64(i%5) * 0.25
	}
	return a, b
}

// TestScratchZeroAlloc pins the Get/Put round trip itself to zero
// allocations once the buffer and its header box are pooled.
func TestScratchZeroAlloc(t *testing.T) {
	s := scratch.Get(1 << 12)
	scratch.Put(s)
	if avg := testing.AllocsPerRun(100, func() {
		s := scratch.Get(1 << 12)
		scratch.Put(s)
	}); avg != 0 {
		t.Fatalf("scratch Get/Put allocates %.1f objects per round trip, want 0", avg)
	}
}
