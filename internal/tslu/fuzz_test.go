package tslu

import (
	"testing"

	"repro/internal/lapack"
	"repro/internal/matrix"
)

// FuzzBuildSwaps checks that for any list of distinct winner rows, the
// generated ipiv segment is a valid permutation that places the winners at
// the target positions, and that applying it in reverse inverts it.
func FuzzBuildSwaps(f *testing.F) {
	f.Add(uint16(0x1234), uint8(3), uint8(2))
	f.Add(uint16(0xffff), uint8(8), uint8(0))
	f.Add(uint16(1), uint8(1), uint8(5))
	f.Add(uint16(0xbeef), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seedRaw uint16, countRaw, offRaw uint8) {
		const rows = 24
		count := int(countRaw)%8 + 1
		r0 := int(offRaw) % (rows - count)
		// Derive `count` distinct winners in [r0, rows) from the seed.
		winners := make([]int, 0, count)
		used := map[int]bool{}
		s := uint64(seedRaw) + 1
		for len(winners) < count {
			s = s*6364136223846793005 + 1442695040888963407
			w := r0 + int(s%uint64(rows-r0))
			if !used[w] {
				used[w] = true
				winners = append(winners, w)
			}
		}
		lab := matrix.New(rows, 1)
		for i := 0; i < rows; i++ {
			lab.Set(i, 0, float64(i))
		}
		orig := lab.Clone()
		sw := BuildSwaps(winners, r0)
		if len(sw) != count {
			t.Fatalf("swap list length %d want %d", len(sw), count)
		}
		lapack.Interchange(lab, sw, r0, false)
		for j, w := range winners {
			if int(lab.At(r0+j, 0)) != w {
				t.Fatalf("winner %d not at position %d: %v (winners %v, sw %v)",
					w, r0+j, lab, winners, sw)
			}
		}
		// Must remain a permutation.
		seen := map[int]bool{}
		for i := 0; i < rows; i++ {
			seen[int(lab.At(i, 0))] = true
		}
		if len(seen) != rows {
			t.Fatalf("rows lost: %v", lab)
		}
		lapack.Interchange(lab, sw, r0, true)
		if !lab.Equal(orig) {
			t.Fatal("the reverse interchanges did not invert")
		}
	})
}

// FuzzPartition checks the paper's ceiling partition formula for any (m, tr).
func FuzzPartition(f *testing.F) {
	f.Add(10, 4)
	f.Add(1, 1)
	f.Add(100, 7)
	f.Add(7, 100)
	f.Fuzz(func(t *testing.T, m, tr int) {
		if m < 1 || m > 1<<20 || tr < 1 || tr > 1<<16 {
			t.Skip()
		}
		blocks := Partition(m, tr)
		if len(blocks) == 0 {
			t.Fatal("no blocks")
		}
		at := 0
		for _, blk := range blocks {
			if blk[0] != at || blk[1] <= blk[0] {
				t.Fatalf("bad block %v at %d (m=%d tr=%d)", blk, at, m, tr)
			}
			at = blk[1]
		}
		if at != m {
			t.Fatalf("blocks cover %d of %d rows", at, m)
		}
		if len(blocks) > tr {
			t.Fatalf("%d blocks for tr=%d", len(blocks), tr)
		}
	})
}

// FuzzPlanReduction checks plan validity for arbitrary leaf counts/trees.
func FuzzPlanReduction(f *testing.F) {
	f.Add(8, 0)
	f.Add(5, 1)
	f.Add(16, 2)
	f.Fuzz(func(t *testing.T, n, treeRaw int) {
		if n < 1 || n > 4096 {
			t.Skip()
		}
		tree := Tree(((treeRaw % 3) + 3) % 3)
		steps := PlanReduction(n, tree)
		consumed := map[int]bool{}
		next := n
		for _, st := range steps {
			if st.Out != next {
				t.Fatalf("out %d want %d", st.Out, next)
			}
			next++
			for _, in := range st.In {
				if in >= st.Out || consumed[in] {
					t.Fatalf("bad input %d in step to %d", in, st.Out)
				}
				consumed[in] = true
			}
		}
		// Everything except the root is consumed exactly once.
		if len(consumed) != next-1 {
			t.Fatalf("consumed %d of %d nodes", len(consumed), next-1)
		}
	})
}
