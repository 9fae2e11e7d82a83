package tslu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// checkPlan validates the structural invariants of a reduction plan: every
// leaf feeds exactly one merge path, every step consumes only already-
// produced indices, and the final output is the last index.
func checkPlan(t *testing.T, nLeaves int, tree Tree) {
	t.Helper()
	steps := PlanReduction(nLeaves, tree)
	if nLeaves == 1 {
		if steps != nil {
			t.Fatalf("1 leaf must need no merges, got %v", steps)
		}
		return
	}
	consumed := map[int]bool{}
	produced := map[int]bool{}
	next := nLeaves
	for _, st := range steps {
		if len(st.In) < 2 {
			t.Fatalf("tree=%v leaves=%d: step with %d inputs", tree, nLeaves, len(st.In))
		}
		if st.Out != next {
			t.Fatalf("tree=%v leaves=%d: out %d want %d", tree, nLeaves, st.Out, next)
		}
		next++
		for _, in := range st.In {
			if in >= st.Out {
				t.Fatalf("step consumes not-yet-produced index %d", in)
			}
			if in >= nLeaves && !produced[in] {
				t.Fatalf("step consumes unproduced merge output %d", in)
			}
			if consumed[in] {
				t.Fatalf("index %d consumed twice", in)
			}
			consumed[in] = true
		}
		produced[st.Out] = true
	}
	// Every leaf and every intermediate except the root must be consumed.
	root := next - 1
	for i := 0; i < next-1; i++ {
		if !consumed[i] {
			t.Fatalf("tree=%v leaves=%d: index %d never consumed (root=%d)", tree, nLeaves, i, root)
		}
	}
	if consumed[root] {
		t.Fatalf("root %d consumed", root)
	}
}

func TestPlanReductionStructures(t *testing.T) {
	for _, tree := range []Tree{Binary, Flat, Hybrid} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33} {
			checkPlan(t, n, tree)
		}
	}
}

func TestPlanReductionShapeCounts(t *testing.T) {
	// Flat: exactly one step with all leaves.
	steps := PlanReduction(8, Flat)
	if len(steps) != 1 || len(steps[0].In) != 8 {
		t.Fatalf("flat plan: %v", steps)
	}
	// Binary over 8: 4+2+1 = 7 pairwise steps.
	steps = PlanReduction(8, Binary)
	if len(steps) != 7 {
		t.Fatalf("binary plan has %d steps", len(steps))
	}
	for _, st := range steps {
		if len(st.In) != 2 {
			t.Fatalf("binary step with fan-in %d", len(st.In))
		}
	}
	// Hybrid over 16: 4 flat groups of 4, then 3 binary merges.
	steps = PlanReduction(16, Hybrid)
	if len(steps) != 7 {
		t.Fatalf("hybrid plan has %d steps: %v", len(steps), steps)
	}
	for i := 0; i < 4; i++ {
		if len(steps[i].In) != 4 {
			t.Fatalf("hybrid group %d fan-in %d", i, len(steps[i].In))
		}
	}
	for i := 4; i < 7; i++ {
		if len(steps[i].In) != 2 {
			t.Fatalf("hybrid binary step %d fan-in %d", i, len(steps[i].In))
		}
	}
}

// TestPlanDepth verifies the synchronization-count claims: binary depth is
// log2(Tr), flat is 1, hybrid is 1 + log2(Tr/4).
func TestPlanDepth(t *testing.T) {
	depth := func(nLeaves int, tree Tree) int {
		steps := PlanReduction(nLeaves, tree)
		d := make(map[int]int)
		maxD := 0
		for _, st := range steps {
			lvl := 0
			for _, in := range st.In {
				if d[in] > lvl {
					lvl = d[in]
				}
			}
			d[st.Out] = lvl + 1
			if lvl+1 > maxD {
				maxD = lvl + 1
			}
		}
		return maxD
	}
	if got := depth(16, Binary); got != 4 {
		t.Errorf("binary depth(16) = %d want 4", got)
	}
	if got := depth(16, Flat); got != 1 {
		t.Errorf("flat depth(16) = %d want 1", got)
	}
	if got := depth(16, Hybrid); got != 3 {
		t.Errorf("hybrid depth(16) = %d want 3 (1 flat + 2 binary)", got)
	}
}

// TestPlanLevels pins MergeStep.Level: one more than the highest input's
// level (leaves are 0), with the root holding the plan's maximum.
func TestPlanLevels(t *testing.T) {
	for _, tree := range []Tree{Binary, Flat, Hybrid} {
		for n := 2; n <= 33; n++ {
			steps := PlanReduction(n, tree)
			level := make([]int, n, n+len(steps))
			for _, st := range steps {
				want := 0
				for _, in := range st.In {
					want = max(want, level[in])
				}
				if st.Level != want+1 {
					t.Fatalf("tree=%v leaves=%d step %d: Level %d want %d", tree, n, st.Out, st.Level, want+1)
				}
				level = append(level, st.Level)
			}
			root := steps[len(steps)-1].Level
			for _, l := range level {
				if l > root {
					t.Fatalf("tree=%v leaves=%d: root Level %d below a step's %d", tree, n, root, l)
				}
			}
		}
	}
}

func TestFactorHybridTree(t *testing.T) {
	for _, tc := range []struct{ m, w, tr int }{
		{64, 8, 4}, {200, 25, 16}, {100, 10, 7}, {90, 9, 9},
	} {
		orig := matrix.Random(tc.m, tc.w, int64(tc.m+tc.tr))
		if res := factorResidual(t, orig, tc.tr, Hybrid); res > 1e-12*float64(tc.m) {
			t.Errorf("hybrid m=%d w=%d tr=%d residual %g", tc.m, tc.w, tc.tr, res)
		}
	}
}

func TestHybridSelectsGoodPivots(t *testing.T) {
	// The dominant row must always win the tournament, whatever the tree.
	for _, tree := range []Tree{Binary, Flat, Hybrid} {
		panel := matrix.Random(128, 4, 9)
		panel.Set(77, 0, 1e6)
		leaves := []*Candidates{}
		for _, blk := range Partition(128, 8) {
			leaves = append(leaves, Leaf(panel.View(blk[0], 0, blk[1]-blk[0], 4), blk[0]))
		}
		root := Reduce(leaves, tree)
		if root.Idx[0] != 77 {
			t.Errorf("tree=%v: dominant row lost the tournament: %v", tree, root.Idx)
		}
		if math.Abs(root.Rows.At(0, 0)) != 1e6 {
			t.Errorf("tree=%v: winner values wrong", tree)
		}
	}
}

func TestPlanReductionProperty(t *testing.T) {
	f := func(nRaw, treeRaw uint8) bool {
		n := int(nRaw)%30 + 1
		tree := Tree(int(treeRaw) % 3)
		steps := PlanReduction(n, tree)
		// Total fan-in must equal number of consumed indices =
		// (n + len(steps)) - 1 (everything except the root).
		fanIn := 0
		for _, st := range steps {
			fanIn += len(st.In)
		}
		return fanIn == n+len(steps)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
