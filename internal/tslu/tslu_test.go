package tslu

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
)

// factorResidual runs Factor and returns ||P*A - L*U||_F / ||A||_F.
func factorResidual(t *testing.T, orig *matrix.Dense, tr int, tree Tree) float64 {
	t.Helper()
	panel := orig.Clone()
	ipiv, err := Factor(panel, tr, tree)
	if err != nil {
		t.Fatalf("Factor(tr=%d, %v): %v", tr, tree, err)
	}
	l, u := lapack.ExtractLU(panel)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	pa := orig.Clone()
	lapack.LASWP(pa, ipiv, 0, len(ipiv))
	diff := 0.0
	for j := 0; j < pa.Cols; j++ {
		a, b := pa.Col(j), prod.Col(j)
		for i := range a {
			d := a[i] - b[i]
			diff += d * d
		}
	}
	return math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300)
}

func TestFactorShapesAndTrees(t *testing.T) {
	for _, tree := range []Tree{Binary, Flat} {
		for _, tc := range []struct{ m, w, tr int }{
			{8, 8, 1}, {8, 8, 2}, {64, 8, 4}, {64, 8, 8},
			{100, 10, 3}, {100, 10, 7}, {33, 5, 4}, {200, 25, 16},
			{5, 5, 10}, // tr > m must degrade gracefully
			{17, 1, 4}, // single column
		} {
			orig := matrix.Random(tc.m, tc.w, int64(tc.m*1000+tc.w*10+tc.tr))
			if res := factorResidual(t, orig, tc.tr, tree); res > 1e-12*float64(tc.m) {
				t.Errorf("tree=%v m=%d w=%d tr=%d residual %g", tree, tc.m, tc.w, tc.tr, res)
			}
		}
	}
}

func TestFactorTr1MatchesGEPP(t *testing.T) {
	// With a single block row, ca-pivoting IS partial pivoting: identical
	// pivots and identical factors.
	orig := matrix.Random(60, 12, 5)
	panel := orig.Clone()
	got, err := Factor(panel, 1, Binary)
	if err != nil {
		t.Fatal(err)
	}
	ref := orig.Clone()
	ipiv := make([]int, 12)
	if err := lapack.GETF2(ref, ipiv); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ipiv) {
		t.Fatalf("tr=1 pivots %v differ from GEPP's %v", got, ipiv)
	}
	if !panel.EqualApprox(ref, 1e-11) {
		t.Fatal("tr=1 factor differs from GEPP")
	}
}

func labelMatrix(m int) *matrix.Dense {
	lab := matrix.New(m, 1)
	for i := 0; i < m; i++ {
		lab.Set(i, 0, float64(i))
	}
	return lab
}

func TestPartition(t *testing.T) {
	blocks := Partition(10, 4)
	// ceil(10/4) = 3 -> [0,3) [3,6) [6,9) [9,10)
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks = %v want %v", blocks, want)
		}
	}
	// tr > m clamps to one row per block.
	if got := Partition(3, 8); len(got) != 3 {
		t.Fatalf("clamped blocks = %v", got)
	}
	// Exact division.
	if got := Partition(8, 4); len(got) != 4 || got[3] != [2]int{6, 8} {
		t.Fatalf("even blocks = %v", got)
	}
	// Degenerate rounding: Partition(7,6) -> chunk=2 -> 4 blocks, all non-empty.
	for _, blk := range Partition(7, 6) {
		if blk[0] >= blk[1] {
			t.Fatalf("empty block in %v", Partition(7, 6))
		}
	}
}

func TestBuildSwapsMovesWinnersToTop(t *testing.T) {
	cases := [][]int{
		{5, 2, 8},
		{0, 1, 2},
		{2, 0, 1},
		{9, 8, 7, 6},
		{3, 4, 0, 1}, // winners displace each other
	}
	for _, winners := range cases {
		lab := labelMatrix(10)
		sw := BuildSwaps(winners, 0)
		lapack.LASWP(lab, sw, 0, len(sw))
		for j, w := range winners {
			if int(lab.At(j, 0)) != w {
				t.Fatalf("winners %v: row %d is %v want %d (swaps %v)", winners, j, lab.At(j, 0), w, sw)
			}
		}
		// Permutation must be a bijection: all labels still present.
		seen := map[int]bool{}
		for i := 0; i < 10; i++ {
			seen[int(lab.At(i, 0))] = true
		}
		if len(seen) != 10 {
			t.Fatalf("winners %v: rows lost, %v", winners, lab)
		}
	}
}

func TestBuildSwapsWithOffset(t *testing.T) {
	lab := labelMatrix(12)
	winners := []int{7, 11, 4}
	sw := BuildSwaps(winners, 4)
	lapack.Interchange(lab, sw, 4, false)
	for j, w := range winners {
		if int(lab.At(4+j, 0)) != w {
			t.Fatalf("offset swaps wrong: %v", lab)
		}
	}
}

func TestUndoPivots(t *testing.T) {
	orig := matrix.Random(15, 3, 9)
	a := orig.Clone()
	sw := BuildSwaps([]int{9, 3, 12}, 0)
	lapack.LASWP(a, sw, 0, len(sw))
	lapack.LASWPBackward(a, sw, 0, len(sw))
	if !a.Equal(orig) {
		t.Fatal("LASWPBackward did not undo BuildSwaps' pivots")
	}
}

func TestLeafSelectsLocalPivots(t *testing.T) {
	// A block whose largest first-column element is row 3 must elect row 3
	// (global index rowOffset+3) as first winner.
	block := matrix.New(5, 2)
	for i := 0; i < 5; i++ {
		block.Set(i, 0, float64(i))
		block.Set(i, 1, 1)
	}
	block.Set(3, 0, 100)
	c := Leaf(block, 20)
	if c.Idx[0] != 23 {
		t.Fatalf("first winner = %d, want 23 (Idx %v)", c.Idx[0], c.Idx)
	}
	if c.Rows.At(0, 0) != 100 {
		t.Fatalf("winner original value = %v, want 100", c.Rows.At(0, 0))
	}
}

func TestMergePrefersLargerPivots(t *testing.T) {
	// Two leaves; the second has the dominant row. The merge must rank it
	// first.
	a := matrix.New(3, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	a.Set(2, 0, 0.5)
	b := matrix.New(3, 2)
	b.Set(0, 0, 50)
	b.Set(1, 1, 2)
	b.Set(2, 1, 0.1)
	c := Merge(Leaf(a, 0), Leaf(b, 3))
	if c.Idx[0] != 3 {
		t.Fatalf("merge winner = %v, want row 3 first", c.Idx)
	}
}

// TestRoundCandidatesMatchGEPP pins what a tournament round hands on,
// for a leaf and for a merge of leaves: with the round's GEPP interchanges
// turned into a permutation perm, winner j is input row perm[j] — Idx
// names it globally and Rows holds its original values — and Fac is the
// leading k rows of the GEPP factor. All three must match exactly.
func TestRoundCandidatesMatchGEPP(t *testing.T) {
	const b = 12
	panel := matrix.Random(300, b, 17)
	blocks := Partition(300, 3)
	leaves := make([]*Candidates, len(blocks))
	var stacked []*matrix.Dense
	var stackedIdx []int
	for i, blk := range blocks {
		block := panel.View(blk[0], 0, blk[1]-blk[0], b)
		leaves[i] = Leaf(block, blk[0])
		global := make([]int, block.Rows)
		for r := range global {
			global[r] = blk[0] + r
		}
		checkRound(t, "leaf", leaves[i], block, global)
		stacked = append(stacked, leaves[i].Rows)
		stackedIdx = append(stackedIdx, leaves[i].Idx...)
	}
	in := matrix.New(len(stackedIdx), b)
	at := 0
	for _, r := range stacked {
		in.View(at, 0, r.Rows, b).CopyFrom(r)
		at += r.Rows
	}
	checkRound(t, "merge", MergeMany(leaves), in, stackedIdx)
}

// checkRound compares one round's candidates against a GEPP of its input
// rows, whose global row indices are global.
func checkRound(t *testing.T, what string, c *Candidates, input *matrix.Dense, global []int) {
	t.Helper()
	fac := input.Clone()
	ipiv := make([]int, min(fac.Rows, fac.Cols))
	_ = lapack.RGETF2(fac, ipiv)
	perm := lapack.IpivToPerm(ipiv, input.Rows)
	k := len(ipiv)
	if len(c.Idx) != k || c.Rows.Rows != k || c.Fac.Rows != k {
		t.Fatalf("%s: %d/%d/%d winners, want %d", what, len(c.Idx), c.Rows.Rows, c.Fac.Rows, k)
	}
	for j := 0; j < k; j++ {
		if c.Idx[j] != global[perm[j]] {
			t.Fatalf("%s: Idx[%d] = %d, want %d", what, j, c.Idx[j], global[perm[j]])
		}
		for col := 0; col < input.Cols; col++ {
			if c.Rows.At(j, col) != input.At(perm[j], col) {
				t.Fatalf("%s: Rows(%d, %d) = %v, want input row %d's %v", what, j, col, c.Rows.At(j, col), perm[j], input.At(perm[j], col))
			}
			if c.Fac.At(j, col) != fac.At(j, col) {
				t.Fatalf("%s: Fac(%d, %d) = %v, want %v", what, j, col, c.Fac.At(j, col), fac.At(j, col))
			}
		}
	}
}

func TestReduceBinaryOddLeafCount(t *testing.T) {
	// 5 leaves: the binary reduction must handle the odd tail.
	panel := matrix.Random(50, 6, 13)
	blocks := Partition(50, 5)
	leaves := make([]*Candidates, len(blocks))
	for i, blk := range blocks {
		leaves[i] = Leaf(panel.View(blk[0], 0, blk[1]-blk[0], 6), blk[0])
	}
	root := Reduce(leaves, Binary)
	if len(root.Idx) != 6 {
		t.Fatalf("root has %d winners, want 6", len(root.Idx))
	}
	seen := map[int]bool{}
	for _, w := range root.Idx {
		if w < 0 || w >= 50 || seen[w] {
			t.Fatalf("bad winner set %v", root.Idx)
		}
		seen[w] = true
	}
}

func TestFactorSingularPanel(t *testing.T) {
	panel := matrix.New(20, 4) // identically zero
	if _, err := Factor(panel, 4, Binary); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	// Rank-1 panel: also deficient.
	p2 := matrix.New(20, 4)
	for i := 0; i < 20; i++ {
		for j := 0; j < 4; j++ {
			p2.Set(i, j, float64(i+1))
		}
	}
	if _, err := Factor(p2, 4, Binary); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular for rank-1, got %v", err)
	}
}

func TestFactorGrowthWilkinsonTr1(t *testing.T) {
	n := 12
	w := matrix.Wilkinson(n)
	panel := w.Clone()
	if _, err := Factor(panel, 1, Binary); err != nil {
		t.Fatal(err)
	}
	g := lapack.GrowthFactor(panel, w)
	want := math.Pow(2, float64(n-1))
	if math.Abs(g-want)/want > 1e-12 {
		t.Fatalf("growth %v want %v", g, want)
	}
}

func TestFactorGrowthModestOnRandom(t *testing.T) {
	// Tournament pivoting should keep growth small on random matrices
	// (stability claim of the paper via [12]).
	for _, tr := range []int{2, 4, 8} {
		orig := matrix.Random(256, 32, int64(tr))
		panel := orig.Clone()
		if _, err := Factor(panel, tr, Binary); err != nil {
			t.Fatal(err)
		}
		if g := lapack.GrowthFactor(panel, orig); g > 100 {
			t.Errorf("tr=%d growth %v too large", tr, g)
		}
	}
}

func TestFactorDistinctWinnersProperty(t *testing.T) {
	f := func(seed int64, trRaw, treeRaw uint8) bool {
		tr := int(trRaw)%8 + 1
		tree := Tree(int(treeRaw) % 2)
		m := 30 + int(uint64(seed)%40)
		w := 4 + int(uint64(seed)%6)
		orig := matrix.Random(m, w, seed)
		panel := orig.Clone()
		ipiv, err := Factor(panel, tr, tree)
		if err != nil {
			return false
		}
		if len(ipiv) != w {
			return false
		}
		// Residual check.
		l, u := lapack.ExtractLU(panel)
		prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
		pa := orig.Clone()
		lapack.LASWP(pa, ipiv, 0, len(ipiv))
		return pa.EqualApprox(prod, 1e-10*float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
