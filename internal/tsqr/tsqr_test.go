package tsqr

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// checkQR verifies A = Q*R, Q^T Q = I and R upper triangular.
func checkQR(t *testing.T, orig *matrix.Dense, tr int, tree Tree) {
	t.Helper()
	m, w := orig.Rows, orig.Cols
	panel := orig.Clone()
	f := Factor(panel, tr, tree)
	r := f.R()
	q := f.ExplicitQ()
	// Orthogonality.
	qtq := blas.Mul(blas.Trans, blas.NoTrans, q, q)
	for i := 0; i < w; i++ {
		qtq.Set(i, i, qtq.At(i, i)-1)
	}
	if e := qtq.MaxAbs(); e > 1e-12*float64(m) {
		t.Errorf("tr=%d tree=%v: ||Q^T Q - I|| = %g", tr, tree, e)
	}
	// Reconstruction.
	qr := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
	if !qr.EqualApprox(orig, 1e-11*float64(m)) {
		t.Errorf("tr=%d tree=%v: A != Q*R", tr, tree)
	}
	// R upper triangular by construction of R(); instead check diagonal
	// magnitudes are nonzero for a random full-rank panel.
	for i := 0; i < w; i++ {
		if r.At(i, i) == 0 {
			t.Errorf("tr=%d tree=%v: zero diagonal in R at %d", tr, tree, i)
		}
	}
}

func TestFactorShapesAndTrees(t *testing.T) {
	for _, tree := range []Tree{Binary, Flat} {
		for _, tc := range []struct{ m, w, tr int }{
			{10, 10, 1}, {40, 5, 2}, {64, 8, 4}, {64, 8, 8},
			{100, 10, 3}, {100, 10, 7}, {200, 25, 16},
			{45, 10, 4},  // ragged last block
			{30, 10, 16}, // tr clamped to m/w
			{12, 1, 4},   // single column
		} {
			orig := matrix.Random(tc.m, tc.w, int64(tc.m*1000+tc.w*10+tc.tr))
			checkQR(t, orig, tc.tr, tree)
		}
	}
}

func TestFactorTr1MatchesGEQR3R(t *testing.T) {
	// With one block TSQR is exactly recursive QR; R must match up to sign
	// conventions (it is literally the same computation).
	orig := matrix.Random(50, 8, 3)
	p1 := orig.Clone()
	f := Factor(p1, 1, Binary)
	if len(f.Levels) != 0 || len(f.Leaves) != 1 {
		t.Fatalf("tr=1 structure: %d leaves %d levels", len(f.Leaves), len(f.Levels))
	}
	r1 := f.R()
	// Reference.
	p2 := orig.Clone()
	FactorLeaf(p2, 0, 50)
	for j := 0; j < 8; j++ {
		for i := 0; i <= j; i++ {
			if math.Abs(r1.At(i, j)-p2.At(i, j)) > 1e-13 {
				t.Fatalf("R(%d,%d) differs: %v vs %v", i, j, r1.At(i, j), p2.At(i, j))
			}
		}
	}
}

func TestRDiagonalMatchesColumnGram(t *testing.T) {
	// |R| from any QR of A satisfies R^T R = A^T A.
	orig := matrix.Random(120, 6, 7)
	for _, tree := range []Tree{Binary, Flat} {
		for _, tr := range []int{1, 2, 4, 8} {
			panel := orig.Clone()
			f := Factor(panel, tr, tree)
			r := f.R()
			ata := blas.Mul(blas.Trans, blas.NoTrans, orig, orig)
			rtr := blas.Mul(blas.Trans, blas.NoTrans, r, r)
			if !ata.EqualApprox(rtr, 1e-10*float64(orig.Rows)) {
				t.Errorf("tr=%d tree=%v: R^T R != A^T A", tr, tree)
			}
		}
	}
}

func TestApplyQTThenQRoundTrip(t *testing.T) {
	orig := matrix.Random(80, 10, 11)
	panel := orig.Clone()
	f := Factor(panel, 4, Binary)
	c := matrix.Random(80, 3, 12)
	saved := c.Clone()
	f.ApplyQT(c)
	if c.EqualApprox(saved, 1e-13) {
		t.Fatal("ApplyQT was a no-op")
	}
	f.ApplyQ(c)
	if !c.EqualApprox(saved, 1e-10) {
		t.Fatal("Q Q^T C != C")
	}
}

func TestApplyQTAnnihilatesPanel(t *testing.T) {
	// Q^T A must equal [R; 0].
	for _, tree := range []Tree{Binary, Flat} {
		orig := matrix.Random(64, 8, 13)
		panel := orig.Clone()
		f := Factor(panel, 4, tree)
		c := orig.Clone()
		f.ApplyQT(c)
		r := f.R()
		top := c.View(0, 0, 8, 8)
		if !top.EqualApprox(r, 1e-11) {
			t.Errorf("tree=%v: top of Q^T A != R", tree)
		}
		bottom := c.View(8, 0, 56, 8)
		if bottom.MaxAbs() > 1e-11 {
			t.Errorf("tree=%v: Q^T A not annihilated below R: %g", tree, bottom.MaxAbs())
		}
	}
}

func TestTreeStructureBinary(t *testing.T) {
	panel := matrix.Random(80, 5, 17)
	f := Factor(panel, 8, Binary)
	if len(f.Leaves) != 8 {
		t.Fatalf("leaves = %d", len(f.Leaves))
	}
	if len(f.Levels) != 3 {
		t.Fatalf("levels = %d want 3", len(f.Levels))
	}
	for l, want := range []int{4, 2, 1} {
		if len(f.Levels[l]) != want {
			t.Fatalf("level %d has %d nodes want %d", l, len(f.Levels[l]), want)
		}
	}
}

func TestTreeStructureFlat(t *testing.T) {
	panel := matrix.Random(80, 5, 18)
	f := Factor(panel, 8, Flat)
	if len(f.Levels) != 1 || len(f.Levels[0]) != 1 {
		t.Fatalf("flat tree levels = %v", f.Levels)
	}
	if got := len(f.Levels[0][0].In); got != 8 {
		t.Fatalf("flat node has %d inputs", got)
	}
}

func TestBinaryOddLeafCount(t *testing.T) {
	// 5 leaves -> levels of 2, 1, 1 nodes (one leaf passes through twice).
	orig := matrix.Random(100, 4, 19)
	panel := orig.Clone()
	f := Factor(panel, 5, Binary)
	if len(f.Leaves) != 5 {
		t.Fatalf("leaves = %d", len(f.Leaves))
	}
	checkQR(t, orig, 5, Binary)
}

func TestLeastSquaresViaTSQR(t *testing.T) {
	// Solve min ||Ax - b|| with A tall and skinny: x = R^{-1} (Q^T b)(0:w).
	m, w := 200, 6
	a := matrix.Random(m, w, 21)
	xWant := matrix.Random(w, 1, 22)
	b := blas.Mul(blas.NoTrans, blas.NoTrans, a, xWant) // consistent system
	panel := a.Clone()
	f := Factor(panel, 8, Binary)
	f.ApplyQT(b)
	x := b.View(0, 0, w, 1)
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, f.R(), x)
	if !x.EqualApprox(xWant, 1e-9) {
		t.Fatal("least squares solution wrong")
	}
}

func TestFactorRInvariantAcrossTrProperty(t *testing.T) {
	// |R(i,i)| is determined by A alone (up to sign), so it must agree
	// across tr and tree shape.
	f := func(seed int64, trRaw, treeRaw uint8) bool {
		tr := int(trRaw)%8 + 1
		tree := Tree(int(treeRaw) % 2)
		m := 40 + int(uint64(seed)%40)
		w := 3 + int(uint64(seed)%5)
		orig := matrix.Random(m, w, seed)
		p1, p2 := orig.Clone(), orig.Clone()
		r1 := Factor(p1, 1, Binary).R()
		r2 := Factor(p2, tr, tree).R()
		for i := 0; i < w; i++ {
			d1, d2 := math.Abs(r1.At(i, i)), math.Abs(r2.At(i, i))
			if math.Abs(d1-d2) > 1e-9*(1+d1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorHybridTree(t *testing.T) {
	for _, tc := range []struct{ m, w, tr int }{
		{64, 8, 4}, {128, 8, 16}, {100, 10, 7}, {200, 25, 8},
	} {
		orig := matrix.Random(tc.m, tc.w, int64(tc.m*7+tc.tr))
		checkQR(t, orig, tc.tr, Hybrid)
	}
}

func TestHybridTreeStructure(t *testing.T) {
	// 16 leaves: level 0 has 4 flat nodes (fan-in 4), then binary levels.
	panel := matrix.Random(320, 4, 31)
	f := Factor(panel, 16, Hybrid)
	if len(f.Leaves) != 16 {
		t.Fatalf("leaves = %d", len(f.Leaves))
	}
	if len(f.Levels) != 3 {
		t.Fatalf("levels = %d want 3", len(f.Levels))
	}
	if len(f.Levels[0]) != 4 || len(f.Levels[0][0].In) != 4 {
		t.Fatalf("hybrid level 0 shape wrong: %d nodes, fan-in %d",
			len(f.Levels[0]), len(f.Levels[0][0].In))
	}
}

func TestFactorStructuredTreeMatchesDense(t *testing.T) {
	for _, tc := range []struct{ m, w, tr int }{
		{64, 8, 4}, {128, 16, 8}, {200, 25, 4}, {90, 10, 3},
	} {
		orig := matrix.Random(tc.m, tc.w, int64(tc.m+tc.w))
		checkQR(t, orig, tc.tr, Binary) // dense baseline, sanity

		panel := orig.Clone()
		f := FactorTree(panel, tc.tr, Binary, true)
		// All eligible nodes must actually be structured.
		for _, lvl := range f.Levels {
			for _, n := range lvl {
				if len(n.In) == 2 && n.In[0].K == tc.w && n.In[1].K == tc.w && !n.Tri {
					t.Fatalf("eligible node not structured: %+v", n.In)
				}
			}
		}
		// R and Q must match the dense tree bit-for-mathematics: the
		// structured reflectors are the same vectors, so R agrees exactly.
		dense := orig.Clone()
		fd := FactorTree(dense, tc.tr, Binary, false)
		if !f.R().EqualApprox(fd.R(), 1e-11) {
			t.Fatalf("%+v: structured R differs from dense R", tc)
		}
		// And the implicit Q behaves: A = Q R.
		q := f.ExplicitQ()
		r := f.R()
		prod := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
		if !prod.EqualApprox(orig, 1e-11*float64(tc.m)) {
			t.Fatalf("%+v: structured A != Q R", tc)
		}
	}
}

func TestFactorStructuredFlatFallsBack(t *testing.T) {
	// Flat-tree nodes have fan-in > 2 and must fall back to dense merges.
	panel := matrix.Random(120, 6, 44)
	f := FactorTree(panel, 8, Flat, true)
	if len(f.Levels) != 1 || f.Levels[0][0].Tri {
		t.Fatal("flat node should be dense")
	}
	// Still correct.
	q := f.ExplicitQ()
	r := f.R()
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
	if !prod.EqualApprox(matrix.Random(120, 6, 44), 1e-10*120) {
		t.Fatal("flat fallback incorrect")
	}
}

// TestNodeInPlaceMatchesGather checks that ApplyQT and ApplyQ, which apply
// a dense tree node to its two carriers' rows where they lie when the
// first carrier holds V's k rows, give the same bits as gathering every
// node's rows into a stacked copy: binary trees at Tr = 2, 4 and 8, whose
// nodes all qualify, and a flat tree at Tr = 4, whose one node keeps the
// gather.
func TestNodeInPlaceMatchesGather(t *testing.T) {
	const m, w = 800, 24
	for _, tc := range []struct {
		tr      int
		tree    Tree
		inPlace bool
	}{{2, Binary, true}, {4, Binary, true}, {8, Binary, true}, {4, Flat, false}} {
		f := Factor(matrix.Random(m, w, int64(tc.tr)), tc.tr, tc.tree)
		for _, lvl := range f.Levels {
			for _, node := range lvl {
				if node.inPlace() != tc.inPlace {
					t.Fatalf("tr=%d tree=%v: node over %v: inPlace %v, want %v", tc.tr, tc.tree, node.In, node.inPlace(), tc.inPlace)
				}
			}
		}
		for _, trans := range []blas.Transpose{blas.Trans, blas.NoTrans} {
			c := matrix.Random(m, 7, 99)
			got, want := c.Clone(), c.Clone()
			if trans == blas.Trans {
				f.ApplyQT(got)
			} else {
				f.ApplyQ(got)
			}
			applyGathered(f, want, trans)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("tr=%d tree=%v trans=%v: element %d is %v in place, %v gathered", tc.tr, tc.tree, trans, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// applyGathered is ApplyQT (trans == Trans) or ApplyQ with every tree node
// applied through the gathered copy.
func applyGathered(f *Factorization, c *matrix.Dense, trans blas.Transpose) {
	if trans == blas.Trans {
		for i := range f.Leaves {
			f.applyLeaf(i, c, trans)
		}
		for _, lvl := range f.Levels {
			for _, node := range lvl {
				applyNodeGathered(node, c, trans)
			}
		}
		return
	}
	for l := len(f.Levels) - 1; l >= 0; l-- {
		for j := len(f.Levels[l]) - 1; j >= 0; j-- {
			applyNodeGathered(f.Levels[l][j], c, trans)
		}
	}
	for i := len(f.Leaves) - 1; i >= 0; i-- {
		f.applyLeaf(i, c, trans)
	}
}
