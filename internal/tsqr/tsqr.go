// Package tsqr implements TSQR, the communication-avoiding QR factorization
// of tall-and-skinny panels, the panel kernel of CAQR.
//
// The panel is split into Tr block rows. Each block is factored
// independently (Householder QR via the recursive dgeqr3 kernel), producing
// local R factors. A reduction tree then repeatedly stacks R factors atop
// one another and factors the stack, until a single R remains. With a binary
// tree the reduction takes log2(Tr) rounds of pairwise [R; R] QRs; with the
// flat (height-1) tree all local Rs are stacked and factored in one round —
// the variant the paper finds competitive on multicore.
//
// Q is never formed explicitly: the factorization object retains the leaf
// reflectors (in the panel, LAPACK-style) and every tree node's reflectors,
// so Q and Q^T can be applied implicitly — including block-wise, which is
// what multithreaded CAQR's trailing-matrix update tasks need.
package tsqr

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/scratch"
	"repro/internal/tslu"
)

// Tree selects the reduction tree shape; the semantics mirror tslu.Tree.
type Tree = tslu.Tree

// Reduction tree shapes, re-exported for convenience.
const (
	Binary = tslu.Binary
	Flat   = tslu.Flat
	Hybrid = tslu.Hybrid
)

// Leaf is the QR factorization of one block row of the panel. Its reflector
// vectors remain stored in the panel below the diagonal of the block; the
// leaf only carries the compact-WY T factor.
type Leaf struct {
	// Row is the global index of the block's first row; Rows its height.
	Row, Rows int
	// K is the number of reflectors, min(Rows, panel width).
	K int
	// T is the K x K compact-WY factor of the block's reflectors.
	T *matrix.Dense
}

// Carrier identifies where an intermediate R factor lives: K rows starting
// at panel row Row.
type Carrier struct {
	Row, K int
}

// Node is one reduction-tree QR of vertically stacked R factors.
type Node struct {
	// In lists the carriers of the stacked operands, top to bottom.
	In []Carrier
	// Out is where the node's result R lives: the leading rows of In[0].
	Out Carrier
	// V holds the node's reflector vectors and T the compact-WY factor.
	// For a dense node V is the factored (sum K_i) x width stack (unit
	// lower trapezoidal); for a structured node (Tri) V is the width x
	// width upper-triangular V2 block produced by lapack.TTQRT, stored in
	// place in the second carrier's rows of the panel.
	V, T *matrix.Dense
	// Tri marks a structured triangle-on-triangle node.
	Tri bool
}

// Factorization is the result of TSQR on a panel: the implicit Q (leaf
// reflectors in the panel plus tree-node reflectors here) and R (in the top
// of the panel).
type Factorization struct {
	// Panel is the factored panel: R in the leading width x width upper
	// triangle, leaf reflectors below the block diagonals.
	Panel *matrix.Dense
	// Width is the panel's column count.
	Width int
	// TreeShape records which reduction tree was used.
	TreeShape Tree
	// Leaves holds the per-block leaf factorizations, in row order.
	Leaves []Leaf
	// Levels holds the reduction rounds: Levels[0] is the first merge
	// round, each level a list of nodes. A flat tree has one level with a
	// single node; tr == 1 yields no levels.
	Levels [][]Node
}

// qrFull factors a (possibly wide or short) block in place and returns its
// compact-WY T. It uses the recursive GEQR3 kernel when the block is tall
// enough, falling back to GEQR2+Larft otherwise.
func qrFull(a *matrix.Dense) *matrix.Dense {
	k := min(a.Rows, a.Cols)
	t := matrix.New(k, k)
	if a.Rows >= a.Cols {
		tau := make([]float64, a.Cols)
		lapack.GEQR3(a, tau, t)
		return t
	}
	tau := make([]float64, k)
	lapack.GEQR2(a, tau)
	lapack.Larft(a.View(0, 0, a.Rows, k), tau[:k], t)
	return t
}

// FactorLeaf factors one block row of the panel in place and returns the
// leaf record. It is exposed separately so multithreaded CAQR can schedule
// it as a task P.
func FactorLeaf(panel *matrix.Dense, row, rows int) Leaf {
	block := panel.View(row, 0, rows, panel.Cols)
	t := qrFull(block)
	return Leaf{Row: row, Rows: rows, K: min(rows, panel.Cols), T: t}
}

// MergeCarriers performs one reduction-tree node: it gathers the R factors
// identified by the carriers from the panel, factors the stack, writes the
// resulting R back into the leading carrier's rows (upper triangle only)
// and returns the node. Exposed for task-based CAQR.
func MergeCarriers(panel *matrix.Dense, in []Carrier) Node {
	w := panel.Cols
	total := 0
	for _, c := range in {
		total += c.K
	}
	stack := matrix.New(total, w)
	at := 0
	for _, c := range in {
		// Gather only the upper-triangular R values; the sub-diagonal of
		// the carrier rows holds reflector data belonging to other nodes.
		for j := 0; j < w; j++ {
			dst := stack.Col(j)
			for i := 0; i < c.K && i <= j; i++ {
				dst[at+i] = panel.At(c.Row+i, j)
			}
		}
		at += c.K
	}
	t := qrFull(stack)
	k := min(total, w)
	out := Carrier{Row: in[0].Row, K: k}
	// Write the merged R back into the leading carrier's upper triangle.
	for j := 0; j < w; j++ {
		for i := 0; i < k && i <= j; i++ {
			panel.Set(out.Row+i, j, stack.At(i, j))
		}
	}
	return Node{In: append([]Carrier(nil), in...), Out: out, V: stack, T: t}
}

// MergeCarriersStructured performs a reduction-tree node with the
// triangle-on-triangle kernel (lapack.TTQRT) when the node merges exactly
// two full-width triangles: the merge runs fully in place on the panel
// (no gather/scatter) at ~1/5 of the dense stacked flops — the CAQR
// optimization the paper's conclusion anticipates. Ineligible nodes
// (flat-tree fan-in > 2, ragged trailing carriers) fall back to the dense
// MergeCarriers.
func MergeCarriersStructured(panel *matrix.Dense, in []Carrier) Node {
	w := panel.Cols
	if len(in) != 2 || in[0].K != w || in[1].K != w {
		return MergeCarriers(panel, in)
	}
	r1 := panel.View(in[0].Row, 0, w, w)
	r2 := panel.View(in[1].Row, 0, w, w)
	t := matrix.New(w, w)
	// TTQRT touches only the upper triangles of both carriers, leaving the
	// leaf reflectors stored strictly below them intact.
	triR2 := lapack.ExtractR(r2)
	lapack.TTQRT(r1, triR2, t)
	// Write V2 (upper triangular) back over R2's triangle.
	for j := 0; j < w; j++ {
		dst := r2.Col(j)
		src := triR2.Col(j)
		for i := 0; i <= j; i++ {
			dst[i] = src[i]
		}
	}
	out := Carrier{Row: in[0].Row, K: w}
	return Node{In: append([]Carrier(nil), in...), Out: out, V: triR2, T: t, Tri: true}
}

// Plan computes the static shape of a TSQR reduction for an m x w panel
// with tr block rows: the leaf row ranges and, per reduction level, the
// carriers each node merges. V and T in the returned nodes are nil; Factor
// (sequentially) or multithreaded CAQR (as tasks) fill the same structure.
//
// tr is clamped so each block except possibly the last has at least w rows,
// since a merged R needs w rows of its leading carrier's block to live in.
// The paper's tall-and-skinny regime (m >> w*Tr) never clamps.
func Plan(m, w, tr int, tree Tree) (blocks [][2]int, levels [][]Node) {
	if w > 0 && tr > m/w {
		tr = m / w
	}
	if tr < 1 {
		tr = 1
	}
	blocks = tslu.Partition(m, tr)
	if len(blocks) == 1 {
		return blocks, nil
	}
	// Carriers indexed like tslu.PlanReduction's node indices: leaves
	// first, merge outputs appended in step order.
	carriers := make([]Carrier, len(blocks))
	for i, blk := range blocks {
		carriers[i] = Carrier{Row: blk[0], K: min(blk[1]-blk[0], w)}
	}
	for _, st := range tslu.PlanReduction(len(blocks), tree) {
		total := 0
		in := make([]Carrier, len(st.In))
		for i, idx := range st.In {
			in[i] = carriers[idx]
			total += carriers[idx].K
		}
		node := Node{In: in, Out: Carrier{Row: in[0].Row, K: min(total, w)}}
		carriers = append(carriers, node.Out)
		for len(levels) < st.Level {
			levels = append(levels, nil)
		}
		levels[st.Level-1] = append(levels[st.Level-1], node)
	}
	return blocks, levels
}

// Factor computes the TSQR factorization of the panel (m x w, m >= w) in
// place, using tr block rows and the given reduction tree, with the
// paper-faithful dense tree merges.
func Factor(panel *matrix.Dense, tr int, tree Tree) *Factorization {
	return FactorTree(panel, tr, tree, false)
}

// FactorTree is Factor with a choice of tree-merge kernel: structured true
// uses the triangle-on-triangle TTQRT for eligible nodes.
func FactorTree(panel *matrix.Dense, tr int, tree Tree, structured bool) *Factorization {
	m, w := panel.Rows, panel.Cols
	if m < w {
		panic(fmt.Sprintf("tsqr: panel must be tall, got %dx%d", m, w))
	}
	f := &Factorization{Panel: panel, Width: w, TreeShape: tree}
	if w == 0 {
		return f
	}
	blocks, levels := Plan(m, w, tr, tree)
	for _, blk := range blocks {
		f.Leaves = append(f.Leaves, FactorLeaf(panel, blk[0], blk[1]-blk[0]))
	}
	merge := MergeCarriers
	if structured {
		merge = MergeCarriersStructured
	}
	for _, lvl := range levels {
		nodes := make([]Node, len(lvl))
		for i, n := range lvl {
			nodes[i] = merge(panel, n.In)
		}
		f.Levels = append(f.Levels, nodes)
	}
	return f
}

// R returns a copy of the w x w upper-triangular factor.
func (f *Factorization) R() *matrix.Dense { return lapack.ExtractR(f.Panel) }

// ApplyLeafQT applies leaf i's Q^T to the matching block rows of c, which
// must have the same row count as the panel. This is CAQR's task S at the
// leaves of the tree.
func (f *Factorization) ApplyLeafQT(i int, c *matrix.Dense) {
	f.applyLeaf(i, c, blas.Trans)
}

// ApplyNodeQT applies tree node (level, j)'s Q^T to the carrier rows of c.
// This is CAQR's task S at the inner levels.
func (f *Factorization) ApplyNodeQT(level, j int, c *matrix.Dense) {
	f.applyNode(level, j, c, blas.Trans)
}

func (f *Factorization) applyLeaf(i int, c *matrix.Dense, trans blas.Transpose) {
	if c.Rows != f.Panel.Rows {
		panic(fmt.Sprintf("tsqr: apply rows %d want %d", c.Rows, f.Panel.Rows))
	}
	leaf := f.Leaves[i]
	v := f.Panel.View(leaf.Row, 0, leaf.Rows, leaf.K)
	sub := c.View(leaf.Row, 0, leaf.Rows, c.Cols)
	lapack.Larfb(trans, v, leaf.T, sub)
}

func (f *Factorization) applyNode(level, j int, c *matrix.Dense, trans blas.Transpose) {
	node := f.Levels[level][j]
	if node.Tri {
		w := f.Width
		c1 := c.View(node.In[0].Row, 0, w, c.Cols)
		c2 := c.View(node.In[1].Row, 0, w, c.Cols)
		lapack.TTMQRT(trans, node.V, node.T, c1, c2)
		return
	}
	if node.inPlace() {
		c1 := c.View(node.In[0].Row, 0, node.In[0].K, c.Cols)
		c2 := c.View(node.In[1].Row, 0, node.In[1].K, c.Cols)
		lapack.LarfbSplit(trans, node.V, node.T, c1, c2)
		return
	}
	applyNodeGathered(node, c, trans)
}

// inPlace reports whether a dense node's stack is Larfb's C1/C2 split as
// it lies in the panel: two carriers, the first holding V's k = V.Cols
// rows. Every binary-tree node over full-width carriers qualifies; a flat
// tree's node, or one whose first carrier is ragged, does not.
func (n *Node) inPlace() bool {
	return len(n.In) == 2 && n.In[0].K == n.V.Cols
}

// applyNodeGathered applies a dense node's op(Q) to its carrier rows of c
// through a stacked copy: the rows are gathered in V's stacking order,
// updated by one Larfb and scattered back.
func applyNodeGathered(node Node, c *matrix.Dense, trans blas.Transpose) {
	total := node.V.Rows
	// tmp is a pooled workspace: the gather loop overwrites all of it
	// (the carriers' K sum to total, matching how V was stacked).
	tmp := scratch.Dense(total, c.Cols)
	at := 0
	for _, cr := range node.In {
		tmp.View(at, 0, cr.K, c.Cols).CopyFrom(c.View(cr.Row, 0, cr.K, c.Cols))
		at += cr.K
	}
	lapack.Larfb(trans, node.V, node.T, tmp)
	at = 0
	for _, cr := range node.In {
		c.View(cr.Row, 0, cr.K, c.Cols).CopyFrom(tmp.View(at, 0, cr.K, c.Cols))
		at += cr.K
	}
	scratch.Release(tmp)
}

// ApplyQT overwrites c with Q^T * c, traversing leaves then tree levels in
// order. c must have the panel's row count. On return rows 0..w hold the
// leading block of Q^T c (for least squares, R x = (Q^T b)(0:w)).
func (f *Factorization) ApplyQT(c *matrix.Dense) {
	for i := range f.Leaves {
		f.ApplyLeafQT(i, c)
	}
	for l := range f.Levels {
		for j := range f.Levels[l] {
			f.ApplyNodeQT(l, j, c)
		}
	}
}

// ApplyQ overwrites c with Q * c: the transpose traversal of ApplyQT —
// tree levels from the root down, then leaves.
func (f *Factorization) ApplyQ(c *matrix.Dense) {
	for l := len(f.Levels) - 1; l >= 0; l-- {
		for j := len(f.Levels[l]) - 1; j >= 0; j-- {
			f.applyNode(l, j, c, blas.NoTrans)
		}
	}
	for i := len(f.Leaves) - 1; i >= 0; i-- {
		f.applyLeaf(i, c, blas.NoTrans)
	}
}

// ExplicitQ forms the thin m x w orthogonal factor by applying Q to the
// first w columns of the identity.
func (f *Factorization) ExplicitQ() *matrix.Dense {
	m, w := f.Panel.Rows, f.Width
	q := matrix.New(m, w)
	for i := 0; i < w; i++ {
		q.Set(i, i, 1)
	}
	f.ApplyQ(q)
	return q
}
