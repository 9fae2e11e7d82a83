package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/tslu"
)

// caluResidual factors a copy of orig and returns ||P*A - L*U||_F / ||A||_F.
func caluResidual(t *testing.T, orig *matrix.Dense, opt Options) float64 {
	t.Helper()
	a := orig.Clone()
	res, err := CALU(a, opt)
	if err != nil {
		t.Fatalf("CALU: %v", err)
	}
	l, u := lapack.ExtractLU(a)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	pa := orig.Clone()
	lapack.LASWP(pa, res.Ipiv, 0, len(res.Ipiv))
	diff := 0.0
	for j := 0; j < pa.Cols; j++ {
		x, y := pa.Col(j), prod.Col(j)
		for i := range x {
			d := x[i] - y[i]
			diff += d * d
		}
	}
	return math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300)
}

func TestCALUShapes(t *testing.T) {
	cases := []struct {
		m, n, b, tr, workers int
		tree                 tslu.Tree
	}{
		{20, 20, 5, 1, 1, tslu.Binary},
		{20, 20, 5, 2, 2, tslu.Binary},
		{64, 64, 8, 4, 4, tslu.Binary},
		{64, 64, 8, 4, 4, tslu.Flat},
		{100, 40, 10, 4, 3, tslu.Binary},
		{200, 24, 8, 8, 4, tslu.Flat},
		{37, 37, 10, 3, 2, tslu.Binary}, // ragged blocks
		{50, 7, 7, 4, 2, tslu.Binary},   // single panel
		{64, 30, 30, 2, 2, tslu.Binary}, // wide panels
		{30, 30, 1, 2, 2, tslu.Binary},  // b = 1
	}
	for _, tc := range cases {
		orig := matrix.Random(tc.m, tc.n, int64(tc.m*7+tc.n*3+tc.b))
		opt := Options{BlockSize: tc.b, PanelThreads: tc.tr, Tree: tc.tree, Workers: tc.workers, Lookahead: true}
		if res := caluResidual(t, orig, opt); res > 1e-11*float64(tc.m) {
			t.Errorf("case %+v: residual %g", tc, res)
		}
	}
}

func TestCALUDeterministicAcrossWorkers(t *testing.T) {
	orig := matrix.Random(80, 60, 42)
	var ref *matrix.Dense
	for _, workers := range []int{1, 2, 4, 8} {
		a := orig.Clone()
		_, err := CALU(a, Options{BlockSize: 10, PanelThreads: 4, Workers: workers, Lookahead: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = a
		} else if !a.Equal(ref) {
			t.Fatalf("workers=%d produced different bits", workers)
		}
	}
}

func TestCALUTr1MatchesGETRF(t *testing.T) {
	// With Tr = 1 tournament pivoting degenerates to GEPP per panel, so
	// CALU must choose the same pivots as blocked dgetrf with the same
	// block size.
	orig := matrix.Random(60, 60, 77)
	a := orig.Clone()
	res, err := CALU(a, Options{BlockSize: 10, PanelThreads: 1, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := orig.Clone()
	ipiv := make([]int, 60)
	if err := lapack.GETRF(ref, ipiv, 10); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Ipiv, ipiv) {
		t.Fatalf("Tr=1 pivots %v differ from GETRF's %v", res.Ipiv, ipiv)
	}
	if !a.EqualApprox(ref, 1e-10) {
		t.Fatal("Tr=1 factor differs from GETRF")
	}
}

func TestCALUSolve(t *testing.T) {
	n := 50
	orig := matrix.Random(n, n, 5)
	xWant := matrix.Random(n, 3, 6)
	rhs := blas.Mul(blas.NoTrans, blas.NoTrans, orig, xWant)
	a := orig.Clone()
	res, err := CALU(a, Options{BlockSize: 8, PanelThreads: 4, Workers: 4, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	lapack.LUSolve(res.A, res.Ipiv, rhs)
	if !rhs.EqualApprox(xWant, 1e-8) {
		t.Fatal("Solve produced wrong solution")
	}
}

func TestCALUSingular(t *testing.T) {
	a := matrix.New(20, 20)
	_, err := CALU(a, Options{BlockSize: 5, PanelThreads: 2, Workers: 2})
	if !errors.Is(err, tslu.ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestCALUColsPerTaskEquivalent(t *testing.T) {
	orig := matrix.Random(60, 60, 9)
	var ref *matrix.Dense
	for _, cpt := range []int{1, 2, 3, 10} {
		a := orig.Clone()
		_, err := CALU(a, Options{BlockSize: 6, PanelThreads: 4, Workers: 3, Lookahead: true, ColsPerTask: cpt})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = a
		} else if !a.EqualApprox(ref, 1e-12) {
			t.Fatalf("ColsPerTask=%d changed the result", cpt)
		}
	}
}

func TestCALULookaheadOffEquivalent(t *testing.T) {
	orig := matrix.Random(48, 48, 10)
	a1, a2 := orig.Clone(), orig.Clone()
	if _, err := CALU(a1, Options{BlockSize: 8, PanelThreads: 4, Workers: 4, Lookahead: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := CALU(a2, Options{BlockSize: 8, PanelThreads: 4, Workers: 4, Lookahead: false}); err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Fatal("look-ahead changed numerical result")
	}
}

func TestCALUTraceEvents(t *testing.T) {
	a := matrix.Random(40, 40, 11)
	res, err := CALU(a, Options{BlockSize: 10, PanelThreads: 2, Workers: 2, Trace: true, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != res.Graph.Len() {
		t.Fatalf("%d events for %d tasks", len(res.Events), res.Graph.Len())
	}
	kinds := map[string]int{}
	for _, e := range res.Events {
		kinds[res.Graph.Task(e.TaskID).Kind.String()]++
	}
	for _, k := range []string{"P", "L", "U", "S"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s tasks traced: %v", k, kinds)
		}
	}
}

func TestBuildCALUGraphMatchesBoundGraph(t *testing.T) {
	opt := Options{BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true}
	g := BuildCALUGraph(64, 48, opt)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(64, 48, 12)
	res, err := CALU(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != res.Graph.Len() || g.Edges() != res.Graph.Edges() {
		t.Fatalf("graph-only %d tasks/%d edges, bound %d/%d",
			g.Len(), g.Edges(), res.Graph.Len(), res.Graph.Edges())
	}
	// Flop annotations must be non-negative everywhere.
	for _, task := range g.Tasks() {
		if task.Flops < 0 {
			t.Fatalf("task %q has negative flops", task.Label)
		}
	}
}

func TestCALUGraphTaskCount(t *testing.T) {
	// For a square N-block matrix with Tr leaves per panel and a binary
	// tree: per iteration K (0-based, nb total): Tr leaves + (Tr-1) merges
	// + 1 finalize + Tr L-tasks (while rows remain) + (nb-K-1) U
	// + Tr*(nb-K-1) S, approximately. Sanity-check overall scale.
	opt := Options{BlockSize: 10, PanelThreads: 4, Workers: 1, Lookahead: true}
	g := BuildCALUGraph(400, 40, opt)
	if g.Len() < 40 || g.Len() > 200 {
		t.Fatalf("unexpected task count %d", g.Len())
	}
}

func TestCALUWilkinsonGrowthTr1(t *testing.T) {
	n := 16
	w := matrix.Wilkinson(n)
	a := w.Clone()
	if _, err := CALU(a, Options{BlockSize: 4, PanelThreads: 1, Workers: 2, Lookahead: true}); err != nil {
		t.Fatal(err)
	}
	g := lapack.GrowthFactor(a, w)
	want := math.Pow(2, float64(n-1))
	if math.Abs(g-want)/want > 1e-10 {
		t.Fatalf("growth %v want %v", g, want)
	}
}

func TestCALUPropertySolve(t *testing.T) {
	f := func(seed int64, trRaw, bRaw, wRaw uint8) bool {
		n := 16 + int(uint64(seed)%32)
		tr := int(trRaw)%6 + 1
		bs := int(bRaw)%12 + 1
		workers := int(wRaw)%4 + 1
		orig := matrix.DiagonallyDominant(n, seed)
		x := matrix.Random(n, 1, seed+1)
		rhs := blas.Mul(blas.NoTrans, blas.NoTrans, orig, x)
		a := orig.Clone()
		res, err := CALU(a, Options{BlockSize: bs, PanelThreads: tr, Workers: workers, Lookahead: true})
		if err != nil {
			return false
		}
		lapack.LUSolve(res.A, res.Ipiv, rhs)
		return rhs.EqualApprox(x, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCALUHybridTree(t *testing.T) {
	for _, tc := range []struct{ m, n, b, tr, workers int }{
		{64, 64, 8, 4, 4},
		{200, 24, 8, 8, 4},
		{160, 16, 8, 16, 2},
	} {
		orig := matrix.Random(tc.m, tc.n, int64(tc.m*5+tc.n))
		opt := Options{BlockSize: tc.b, PanelThreads: tc.tr, Tree: tslu.Hybrid, Workers: tc.workers, Lookahead: true}
		if res := caluResidual(t, orig, opt); res > 1e-11*float64(tc.m) {
			t.Errorf("hybrid case %+v: residual %g", tc, res)
		}
	}
}

func TestCALUSolveTranspose(t *testing.T) {
	n := 40
	orig := matrix.Random(n, n, 51)
	xWant := matrix.Random(n, 2, 52)
	rhs := blas.Mul(blas.Trans, blas.NoTrans, orig, xWant)
	a := orig.Clone()
	res, err := CALU(a, Options{BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	lapack.LUSolveTranspose(res.A, res.Ipiv, rhs)
	if !rhs.EqualApprox(xWant, 1e-8) {
		t.Fatal("SolveTranspose wrong")
	}
}

func TestCALUApplyPermInverse(t *testing.T) {
	n := 30
	orig := matrix.Random(n, n, 53)
	a := orig.Clone()
	res, err := CALU(a, Options{BlockSize: 7, PanelThreads: 3, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	v := matrix.Random(n, 1, 54)
	saved := v.Clone()
	lapack.LASWP(v, res.Ipiv, 0, len(res.Ipiv))
	lapack.LASWPBackward(v, res.Ipiv, 0, len(res.Ipiv))
	if !v.Equal(saved) {
		t.Fatal("LASWPBackward did not invert LASWP on the CALU pivots")
	}
}

func TestCALURCondOrdering(t *testing.T) {
	opt := Options{BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true}
	rcond := func(a *matrix.Dense) float64 {
		anorm := a.NormOne()
		lu := a.Clone()
		res, err := CALU(lu, opt)
		if err != nil {
			t.Fatal(err)
		}
		return lapack.GECON(res.A, res.Ipiv, anorm)
	}
	well := rcond(matrix.DiagonallyDominant(48, 61))
	ill := rcond(matrix.NearSingular(48, 48, 1e-10, 62))
	if well < 1e-4 || ill > 1e-6 || ill >= well {
		t.Fatalf("rcond ordering wrong: well=%g ill=%g", well, ill)
	}
}

func TestCALUSolveRefinedImproves(t *testing.T) {
	n := 64
	orig := matrix.Graded(n, n, 1.3, 63) // moderately ill-conditioned
	xWant := matrix.Random(n, 1, 64)
	rhs := blas.Mul(blas.NoTrans, blas.NoTrans, orig, xWant)
	a := orig.Clone()
	res, err := CALU(a, Options{BlockSize: 16, PanelThreads: 4, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	refined := rhs.Clone()
	corr := res.SolveRefined(orig, refined, 3)
	if !refined.EqualApprox(xWant, 1e-6) {
		t.Fatal("refined solution inaccurate")
	}
	if corr > 1e-8*xWant.MaxAbs()+1e-12 {
		t.Fatalf("refinement did not converge: last correction %g", corr)
	}
}

func TestCALUWideMatrix(t *testing.T) {
	// m < n: factor the leading square block, finish U on the right.
	m, n := 24, 60
	orig := matrix.Random(m, n, 81)
	a := orig.Clone()
	res, err := CALU(a, Options{BlockSize: 8, PanelThreads: 3, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	l, u := lapack.ExtractLU(a)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	pa := orig.Clone()
	lapack.LASWP(pa, res.Ipiv, 0, len(res.Ipiv))
	if !pa.EqualApprox(prod, 1e-11*float64(n)) {
		t.Fatal("wide CALU: P*A != L*U")
	}
}

func TestCALUInverse(t *testing.T) {
	n := 48
	orig := matrix.Random(n, n, 92)
	a := orig.Clone()
	res, err := CALU(a, Options{BlockSize: 12, PanelThreads: 4, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	inv := lapack.GETRI(res.A, res.Ipiv)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, orig, inv)
	if !prod.EqualApprox(matrix.Identity(n), 1e-9*float64(n)) {
		t.Fatal("A * A^{-1} != I")
	}
}

// TestCAQRLookaheadOffEquivalent: look-ahead only reorders the schedule;
// tasks write disjoint regions, so the factors stay bit-identical.
func TestCAQRLookaheadOffEquivalent(t *testing.T) {
	orig := matrix.Random(72, 48, 94)
	a1, a2 := orig.Clone(), orig.Clone()
	base := Options{BlockSize: 12, PanelThreads: 4, Workers: 4, Lookahead: true}
	mustCAQR(t, a1, base)
	off := base
	off.Lookahead = false
	mustCAQR(t, a2, off)
	if !a1.Equal(a2) {
		t.Fatal("look-ahead changed numerical result")
	}
}

func TestDefaultOptions(t *testing.T) {
	opt := DefaultOptions(500, 8)
	if opt.BlockSize != 100 || opt.PanelThreads != 8 || opt.Workers != 8 || !opt.Lookahead {
		t.Fatalf("defaults: %+v", opt)
	}
	small := DefaultOptions(30, 0)
	if small.BlockSize != 30 || small.Workers != 1 {
		t.Fatalf("small defaults: %+v", small)
	}
}

func TestOptionsNormalizeClamps(t *testing.T) {
	opt := Options{BlockSize: 500, PanelThreads: -3, Workers: 0, ColsPerTask: -1}
	if err := opt.normalize(100, 40); err != nil {
		t.Fatal(err)
	}
	if opt.BlockSize != 40 || opt.PanelThreads != 1 || opt.Workers != 1 || opt.ColsPerTask != 1 {
		t.Fatalf("normalized: %+v", opt)
	}
	bad := Options{}
	if err := bad.normalize(10, 20); !errors.Is(err, ErrShape) {
		t.Fatalf("normalize(10, 20) = %v, want ErrShape", err)
	}
}

// TestCALUShapeErrors checks that malformed inputs surface as
// ErrShape-wrapped errors instead of panics.
func TestCALUShapeErrors(t *testing.T) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("validation panicked: %v", p)
		}
	}()
	if _, err := CALU(nil, Options{}); !errors.Is(err, ErrShape) {
		t.Fatalf("CALU(nil) = %v, want ErrShape", err)
	}
	if _, err := CALU(&matrix.Dense{}, Options{}); !errors.Is(err, ErrShape) {
		t.Fatalf("CALU(empty) = %v, want ErrShape", err)
	}
}
