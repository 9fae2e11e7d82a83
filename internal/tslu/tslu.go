// Package tslu implements TSLU, the communication-avoiding LU factorization
// of tall-and-skinny panels by tournament pivoting (ca-pivoting), the panel
// kernel of CALU.
//
// Tournament pivoting runs in two steps. A preprocessing reduction selects b
// pivot rows for the whole panel: the panel is split into Tr block rows, each
// block elects b candidate rows with Gaussian elimination with partial
// pivoting (GEPP), and a reduction tree (binary or height-1 "flat") plays
// candidates against each other with further GEPPs until b winners remain.
// The winners are then swapped to the top of the panel and the panel is
// factored without any further pivoting — the winners' composite LU already
// fell out of the final tournament round.
//
// The package exposes both a sequential driver (Factor) and the individual
// reduction steps (Leaf, Merge, MergeMany, BuildSwaps) so the multithreaded
// CALU in package core can schedule each tournament node as an independent
// task, exactly as the paper's Algorithm 1 does. Pivots leave the package
// in LAPACK's ipiv form, which lapack.LASWP applies.
package tslu

import (
	"errors"
	"fmt"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/scratch"
)

// Tree selects the reduction tree shape used by the tournament.
type Tree int

// Reduction tree shapes. Binary is communication-optimal in parallel; Flat
// (a tree of height one, all leaves merged in a single round) trades one
// larger GEPP for fewer synchronization points and is the alternative the
// paper evaluates. Hybrid — flat groups at the leaves followed by a binary
// tree over the group winners — is the shape of Hadri et al. (LAWN 222)
// that the paper's conclusion singles out for comparison.
const (
	Binary Tree = iota
	Flat
	Hybrid
)

// hybridGroup is the flat fan-in at the bottom level of the Hybrid tree.
const hybridGroup = 4

// String names the tree shape.
func (t Tree) String() string {
	switch t {
	case Binary:
		return "binary"
	case Flat:
		return "flat"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Tree(%d)", int(t))
	}
}

// MergeStep is one node of a reduction plan: the candidate sets at indices
// In are merged, and the result is referred to by index Out in later steps.
// Indices 0..nLeaves-1 denote the leaves; each step's Out is the next free
// index (nLeaves + step number). Level is the step's height in the tree: 1
// for a merge of leaves, one more than its highest input otherwise. The
// root step has the plan's largest Level, its number of synchronization
// rounds.
type MergeStep struct {
	In    []int
	Out   int
	Level int
}

// PlanReduction returns the merge schedule of a tournament over nLeaves
// leaf candidate sets for the given tree shape. The last step's Out (or
// leaf 0, if nLeaves == 1) is the tournament root. Steps whose In sets are
// disjoint are independent and may run concurrently; a step depends only on
// the producers of its In indices.
func PlanReduction(nLeaves int, tree Tree) []MergeStep {
	if nLeaves < 1 {
		panic(fmt.Sprintf("tslu: reduction over %d leaves", nLeaves))
	}
	if nLeaves == 1 {
		return nil
	}
	var steps []MergeStep
	height := make([]int, nLeaves) // tree level per node index; leaves are 0
	emit := func(in []int) int {
		lvl := 0
		for _, i := range in {
			lvl = max(lvl, height[i])
		}
		out := nLeaves + len(steps)
		steps = append(steps, MergeStep{In: in, Out: out, Level: lvl + 1})
		height = append(height, lvl+1)
		return out
	}
	switch tree {
	case Flat:
		in := make([]int, nLeaves)
		for i := range in {
			in[i] = i
		}
		emit(in)
	case Hybrid:
		// Flat groups of hybridGroup leaves, then binary over the winners.
		var level []int
		for at := 0; at < nLeaves; at += hybridGroup {
			hi := min(nLeaves, at+hybridGroup)
			if hi-at == 1 {
				level = append(level, at)
				continue
			}
			in := make([]int, 0, hi-at)
			for i := at; i < hi; i++ {
				in = append(in, i)
			}
			level = append(level, emit(in))
		}
		binaryMerges(level, emit)
	default: // Binary
		level := make([]int, nLeaves)
		for i := range level {
			level[i] = i
		}
		binaryMerges(level, emit)
	}
	return steps
}

// binaryMerges pairs up the given node indices level by level, emitting
// one merge per pair.
func binaryMerges(level []int, emit func(in []int) int) {
	for len(level) > 1 {
		var up []int
		for i := 0; i < len(level); i += 2 {
			if i+1 >= len(level) {
				up = append(up, level[i])
				continue
			}
			up = append(up, emit([]int{level[i], level[i+1]}))
		}
		level = up
	}
}

// ErrSingular is returned when the tournament cannot find enough nonzero
// pivots: the panel is rank deficient.
var ErrSingular = errors.New("tslu: panel is rank deficient")

// Candidates is the state flowing through the tournament reduction tree:
// the currently selected pivot rows of one subtree.
//
// Rank deficiency at a leaf or inner node is not an error: a single block
// row may be singular while the panel as a whole is not. Only the tournament
// root's composite factor is checked for zero pivots, by Finalize.
type Candidates struct {
	// Rows holds the original (unfactored) values of the selected rows,
	// k x b, in pivot order.
	Rows *matrix.Dense
	// Idx maps each row of Rows to its global row index in the panel's
	// parent matrix, in the same pivot order.
	Idx []int
	// Fac is the k x b in-place GEPP factor of Rows (L strictly below the
	// diagonal, U on and above). At the tournament root its leading b x b
	// block is the panel's composite L\U factor.
	Fac *matrix.Dense
}

// Leaf elects up to b candidate pivot rows from one block row of the panel.
// block is the mb x b block; rowOffset is the global row index of its first
// row, used to keep Idx global.
func Leaf(block *matrix.Dense, rowOffset int) *Candidates {
	mb, b := block.Rows, block.Cols
	fac := scratch.Dense(mb, b)
	fac.CopyFrom(block)
	k := min(mb, b)
	ipiv := make([]int, k)
	_ = lapack.RGETF2(fac, ipiv) // leaf rank deficiency is handled at the root
	c := buildCandidates(block, fac, ipiv)
	scratch.Release(fac)
	for j := range c.Idx {
		c.Idx[j] += rowOffset
	}
	return c
}

// Merge plays two candidate sets against each other: their rows are stacked
// (c1 atop c2) and GEPP selects the b winners of the round.
func Merge(c1, c2 *Candidates) *Candidates {
	return MergeMany([]*Candidates{c1, c2})
}

// MergeMany merges any number of candidate sets in one GEPP round; with all
// leaves passed at once it realizes the flat (height-1) reduction tree.
func MergeMany(cs []*Candidates) *Candidates {
	if len(cs) == 0 {
		panic("tslu: MergeMany with no candidates")
	}
	if len(cs) == 1 {
		return cs[0]
	}
	b := cs[0].Rows.Cols
	total := 0
	for _, c := range cs {
		if c.Rows.Cols != b {
			panic(fmt.Sprintf("tslu: merge width mismatch %d vs %d", c.Rows.Cols, b))
		}
		total += c.Rows.Rows
	}
	stacked := scratch.Dense(total, b)
	idx := make([]int, total)
	at := 0
	for _, c := range cs {
		stacked.View(at, 0, c.Rows.Rows, b).CopyFrom(c.Rows)
		copy(idx[at:], c.Idx)
		at += c.Rows.Rows
	}
	fac := scratch.Dense(total, b)
	fac.CopyFrom(stacked)
	ipiv := make([]int, min(total, b))
	_ = lapack.RGETF2(fac, ipiv)
	c := buildCandidates(stacked, fac, ipiv)
	scratch.Release(fac)
	scratch.Release(stacked)
	for j, p := range c.Idx {
		c.Idx[j] = idx[p]
	}
	return c
}

// buildCandidates assembles the result of one tournament round. input holds
// the round's rows in pre-pivot order, fac the in-place GEPP factor and
// ipiv the interchanges GEPP performed. Replaying ipiv on a position array
// names the input row that ended up in each of the first k = len(ipiv)
// positions, and only those k winner rows are copied out of input. The
// result's Idx holds those input positions; the caller maps them to global
// row indices. input and fac belong to the caller (everything retained in
// the result is copied out).
func buildCandidates(input, fac *matrix.Dense, ipiv []int) *Candidates {
	k, b := len(ipiv), input.Cols
	pos := make([]int, input.Rows)
	for i := range pos {
		pos[i] = i
	}
	for j, p := range ipiv {
		pos[j], pos[p] = pos[p], pos[j]
	}
	win := pos[:k:k]
	rows := matrix.New(k, b)
	for c := 0; c < b; c++ {
		src, dst := input.Col(c), rows.Col(c)
		for j, p := range win {
			dst[j] = src[p]
		}
	}
	return &Candidates{Rows: rows, Idx: win, Fac: fac.View(0, 0, k, b).Clone()}
}

// Partition splits rows [0, m) into tr contiguous block rows using the
// paper's ceiling formula I1 = (I-1)*ceil(m/Tr), I2 = min(m, I*ceil(m/Tr)).
// Empty trailing blocks (possible when ceil rounds up) are dropped, so the
// returned slice may be shorter than tr. Each element is {start, end}.
func Partition(m, tr int) [][2]int {
	if tr < 1 {
		panic(fmt.Sprintf("tslu: partition into %d blocks", tr))
	}
	if tr > m {
		tr = m
	}
	chunk := (m + tr - 1) / tr
	var blocks [][2]int
	for i1 := 0; i1 < m; i1 += chunk {
		i2 := min(m, i1+chunk)
		blocks = append(blocks, [2]int{i1, i2})
	}
	return blocks
}

// Reduce plays a full tournament over the given leaf candidates with the
// chosen tree shape and returns the root.
func Reduce(leaves []*Candidates, tree Tree) *Candidates {
	if len(leaves) == 0 {
		panic("tslu: Reduce with no leaves")
	}
	steps := PlanReduction(len(leaves), tree)
	nodes := append([]*Candidates(nil), leaves...)
	for _, st := range steps {
		in := make([]*Candidates, len(st.In))
		for i, idx := range st.In {
			in[i] = nodes[idx]
		}
		nodes = append(nodes, MergeMany(in))
	}
	return nodes[len(nodes)-1]
}

// BuildSwaps converts the tournament winners' row indices into the LAPACK
// ipiv segment that starts at row r0: swapping rows r0+j and sw[j] for j =
// 0, 1, ... in order (lapack.LASWP with sw as ipiv[r0:]) moves winner j
// into row r0+j. The winners must be distinct.
func BuildSwaps(winners []int, r0 int) []int {
	sw := make([]int, len(winners))
	// loc tracks where each displaced original row currently lives; rows
	// not present are still at their home position.
	loc := make(map[int]int, 2*len(winners))
	at := make(map[int]int, 2*len(winners))
	cur := func(orig int) int {
		if p, ok := loc[orig]; ok {
			return p
		}
		return orig
	}
	occupant := func(pos int) int {
		if o, ok := at[pos]; ok {
			return o
		}
		return pos
	}
	for j, w := range winners {
		target := r0 + j
		p := cur(w)
		sw[j] = p
		if p != target {
			other := occupant(target)
			loc[w], at[target] = target, w
			loc[other], at[p] = p, other
		}
	}
	return sw
}

// Finalize completes the panel factorization after the tournament: it
// applies the winners' interchanges to the panel, writes the root's
// composite L\U into the leading rows, and computes the remaining rows of L
// by triangular solve against U. It returns the panel's ipiv and
// ErrSingular if the composite has a zero pivot.
func Finalize(panel *matrix.Dense, root *Candidates) ([]int, error) {
	m, w := panel.Rows, panel.Cols
	k := root.Fac.Rows
	ipiv := BuildSwaps(root.Idx, 0)
	lapack.LASWP(panel, ipiv, 0, len(ipiv))
	// Leading k rows become the composite L\U from the tournament root.
	panel.View(0, 0, k, w).CopyFrom(root.Fac)
	var err error
	for i := 0; i < min(k, w); i++ {
		if root.Fac.At(i, i) == 0 {
			err = ErrSingular
		}
	}
	if k < min(m, w) {
		// Not enough independent rows were found.
		err = ErrSingular
	}
	// L blocks below the composite: L = A * U^{-1}.
	if m > k && err == nil {
		ukk := root.Fac.View(0, 0, k, k)
		rest := panel.View(k, 0, m-k, w)
		blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, ukk, rest)
	}
	return ipiv, err
}

// Factor performs the complete sequential TSLU factorization of a panel
// (m x w, m >= w): tournament pivoting over tr block rows with the given
// reduction tree, followed by the pivoted panel factorization. On return
// the panel holds L (unit lower, below the diagonal) and U (on and above),
// and lapack.LASWP with the returned ipiv reproduces the row permutation.
//
// With tr == 1 TSLU degenerates to plain GEPP on the panel, selecting the
// same pivots as partial pivoting — a property the tests rely on.
func Factor(panel *matrix.Dense, tr int, tree Tree) ([]int, error) {
	m, w := panel.Rows, panel.Cols
	if m < w {
		panic(fmt.Sprintf("tslu: panel must be tall, got %dx%d", m, w))
	}
	if w == 0 {
		return nil, nil
	}
	blocks := Partition(m, tr)
	leaves := make([]*Candidates, len(blocks))
	for i, blk := range blocks {
		leaves[i] = Leaf(panel.View(blk[0], 0, blk[1]-blk[0], w), blk[0])
	}
	root := Reduce(leaves, tree)
	return Finalize(panel, root)
}
