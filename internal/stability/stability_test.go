package stability

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/tiled"
	"repro/internal/tslu"
)

func TestGEPPReference(t *testing.T) {
	a := matrix.Random(100, 100, 1)
	r := MeasureGEPP(a)
	if r.Residual > 1e-13 {
		t.Fatalf("GEPP residual %g", r.Residual)
	}
	if r.Growth < 1 || r.Growth > 1000 {
		t.Fatalf("GEPP growth %g out of expected range", r.Growth)
	}
}

// TestCALUAsStableAsGEPP is the paper's Section II claim: on a spread of
// matrix classes, CALU's growth factor and residual stay within a small
// multiple of partial pivoting's.
func TestCALUAsStableAsGEPP(t *testing.T) {
	cases := map[string]*matrix.Dense{
		"random":     matrix.Random(128, 128, 2),
		"normal":     matrix.RandomNormal(128, 128, 3),
		"graded":     matrix.Graded(128, 128, 1.2, 4),
		"orthoish":   matrix.Orthogonalish(128, 128, 5),
		"dominant":   matrix.DiagonallyDominant(128, 6),
		"nearlySing": matrix.NearSingular(128, 128, 1e-4, 7),
	}
	opt := core.Options{BlockSize: 16, PanelThreads: 4, Workers: 4, Lookahead: true}
	for name, a := range cases {
		ref := MeasureGEPP(a)
		got, err := MeasureCALU(a, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Residual > 1e-12 {
			t.Errorf("%s: CALU residual %g", name, got.Residual)
		}
		// Tournament pivoting growth is bounded by 2^(b*height) in theory
		// but stays close to GEPP in practice; allow an order of magnitude.
		if got.Growth > 20*ref.Growth+10 {
			t.Errorf("%s: CALU growth %g vs GEPP %g", name, got.Growth, ref.Growth)
		}
	}
}

func TestTSLUStability(t *testing.T) {
	a := matrix.Random(512, 32, 8)
	for _, tree := range []tslu.Tree{tslu.Binary, tslu.Flat} {
		for _, tr := range []int{2, 4, 8} {
			r, err := MeasureTSLU(a, tr, tree)
			if err != nil {
				t.Fatal(err)
			}
			if r.Residual > 1e-13 {
				t.Errorf("tr=%d %v: residual %g", tr, tree, r.Residual)
			}
			if r.Growth > 100 {
				t.Errorf("tr=%d %v: growth %g", tr, tree, r.Growth)
			}
		}
	}
}

func TestSolveErrorCALUAndTiled(t *testing.T) {
	a := matrix.DiagonallyDominant(96, 9)
	caluErr := SolveError(a, 10, func(rhs *matrix.Dense) error {
		lu := a.Clone()
		res, err := core.CALU(lu, core.Options{BlockSize: 16, PanelThreads: 4, Workers: 2, Lookahead: true})
		if err != nil {
			return err
		}
		lapack.LUSolve(res.A, res.Ipiv, rhs)
		return nil
	})
	tiledErr := SolveError(a, 10, func(rhs *matrix.Dense) error {
		lu, err := tiled.GETRF(a.Clone(), tiled.Options{TileSize: 16, Workers: 2})
		if err != nil {
			return err
		}
		lu.Solve(rhs)
		return nil
	})
	if caluErr > 1e-10 {
		t.Fatalf("CALU solve error %g", caluErr)
	}
	if tiledErr > 1e-10 {
		t.Fatalf("tiled solve error %g", tiledErr)
	}
}

// TestIncrementalPivotingWorseGrowth demonstrates why ca-pivoting matters:
// on adversarial graded matrices incremental pivoting (tiled LU) admits
// larger growth than CALU, which tracks GEPP.
func TestIncrementalPivotingGrowthComparison(t *testing.T) {
	a := matrix.Graded(96, 96, 1.35, 11)
	ref := MeasureGEPP(a)
	calu, err := MeasureCALU(a, core.Options{BlockSize: 16, PanelThreads: 4, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := tiled.GETRF(a.Clone(), tiled.Options{TileSize: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Tiled LU has no global P, so growth comes straight from its in-place
	// U against the original — the shared helper, not a hand-rolled loop.
	tiledGrowth := lapack.GrowthFactor(lu.A, a)
	t.Logf("growth: GEPP %.3g  CALU %.3g  tiled %.3g", ref.Growth, calu.Growth, tiledGrowth)
	if calu.Growth > 50*ref.Growth+10 {
		t.Errorf("CALU growth %g far from GEPP %g", calu.Growth, ref.Growth)
	}
	// No hard assertion that tiled is worse (it depends on the matrix),
	// but it must at least be finite/sane.
	if math.IsNaN(tiledGrowth) || tiledGrowth > 1e8 {
		t.Errorf("tiled growth %g unreasonable", tiledGrowth)
	}
}

func TestMeasureQRSanity(t *testing.T) {
	a := matrix.Random(80, 20, 12)
	res, err := core.CAQR(a.Clone(), core.Options{BlockSize: 5, PanelThreads: 4, Workers: 2, Lookahead: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureQR(a, res.ExplicitQ(), res.R())
	if rep.Residual > 1e-13*80 {
		t.Fatalf("residual %g", rep.Residual)
	}
	if rep.Orthogonality > 1e-13*80 {
		t.Fatalf("orthogonality %g", rep.Orthogonality)
	}
}
