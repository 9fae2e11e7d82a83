package dist

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/tslu"
)

// Additional tags for the full factorization.
const (
	tagComposite = iota + 100
	tagURow
)

// CALU performs the complete distributed-memory CALU factorization of
// Section II: an m x n matrix (m >= n) distributed over P contiguous
// block-row processes, with block boundaries aligned to the panel width b
// so each diagonal block lives on one rank. Per panel it runs the
// tournament (binary tree), exchanges the winner rows across ranks,
// broadcasts the composite LU and the U block row, and updates locally —
// the full communication pattern of the original distributed algorithm.
//
// The matrix is shared storage for the simulation, but every rank touches
// only its own rows; all cross-rank data moves through counted messages.
// The returned LAPACK ipiv (length n, global row indices) defines P in
// P*A = L*U; unlike the multicore Algorithm 1, swaps are applied to full
// rows immediately, so no deferred left-swap pass is needed.
func CALU(w *World, a *matrix.Dense, b int) []int {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("dist: CALU needs m >= n, got %dx%d", m, n))
	}
	if b < 1 {
		panic(fmt.Sprintf("dist: CALU block size %d", b))
	}
	p := w.Size()
	blocks := alignedBlocks(m, b, p)
	nPanels := (n + b - 1) / b
	ipiv := make([]int, n)

	w.Run(func(c *Comm) {
		rank := c.Rank()
		myLo, myHi := 0, 0
		if rank < len(blocks) {
			myLo, myHi = blocks[rank][0], blocks[rank][1]
		}
		for k := 0; k < nPanels; k++ {
			r0 := k * b
			wk := min(b, n-r0)

			// --- Tournament over the participating ranks. ---
			participants := activeRanks(blocks, r0)
			winners, composite := c.tournament(a, blocks, participants, r0, wk)
			sw := tslu.BuildSwaps(winners, r0)
			if rank == 0 {
				copy(ipiv[r0:], sw)
			}

			// --- Apply the winner swaps to full rows, exchanging across
			// ranks where needed. Every rank executes the same sequence. ---
			for j, src := range sw {
				dst := r0 + j
				if src == dst {
					continue
				}
				dOwner := ownerOf(blocks, dst)
				sOwner := ownerOf(blocks, src)
				switch {
				case rank == dOwner && rank == sOwner:
					a.SwapRows(dst, src)
				case rank == dOwner:
					c.Send(sOwner, tagRowSwap, a.Row(dst))
					incoming := c.Recv(sOwner, tagRowSwap)
					a.SetRow(dst, incoming)
				case rank == sOwner:
					c.Send(dOwner, tagRowSwap, a.Row(src))
					incoming := c.Recv(dOwner, tagRowSwap)
					a.SetRow(src, incoming)
				}
			}

			// --- The diagonal owner installs the composite L\U. ---
			diagOwner := ownerOf(blocks, r0)
			if rank == diagOwner {
				a.View(r0, r0, wk, wk).CopyFrom(composite)
			}

			// --- Panel L: each rank TRSMs its active rows below the
			// composite (everyone holds the composite). ---
			lo := max(myLo, r0+wk)
			if rank < len(blocks) && lo < myHi {
				ukk := composite
				lblk := a.View(lo, r0, myHi-lo, wk)
				blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, ukk, lblk)
			}

			// --- U block row: computed by the diagonal owner, broadcast. ---
			nTrail := n - r0 - wk
			if nTrail > 0 {
				var uBuf []float64
				if rank == diagOwner {
					ukj := a.View(r0, r0+wk, wk, nTrail)
					blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, composite, ukj)
					uBuf = flatten(ukj)
				}
				uBuf = c.Bcast(diagOwner, tagURow, uBuf)
				uRow := unflatten(uBuf, nTrail)

				// --- Trailing update on local rows. ---
				if rank < len(blocks) && lo < myHi {
					lik := a.View(lo, r0, myHi-lo, wk)
					aij := a.View(lo, r0+wk, myHi-lo, nTrail)
					blas.Gemm(blas.NoTrans, blas.NoTrans, -1, lik, uRow, 1, aij)
				}
			}
		}
	})
	return ipiv
}

// tournament runs the candidate reduction for one panel and returns the
// winner rows plus the composite factor, identical on every rank.
func (c *Comm) tournament(a *matrix.Dense, blocks [][2]int, participants []int, r0, wk int) ([]int, *matrix.Dense) {
	rank := c.Rank()
	steps := tslu.PlanReduction(len(participants), tslu.Binary)
	// Node index -> owning rank: leaves are the participants in order, and
	// a merge output lives with its first input's owner.
	owner := make([]int, len(participants)+len(steps))
	copy(owner, participants)
	for _, st := range steps {
		owner[st.Out] = owner[st.In[0]]
	}

	cands := map[int]*tslu.Candidates{}
	for leaf, pr := range participants {
		if pr != rank {
			continue
		}
		lo := max(blocks[rank][0], r0)
		hi := blocks[rank][1]
		local := a.View(lo, r0, hi-lo, wk)
		cands[leaf] = tslu.Leaf(local, lo)
	}
	for _, st := range steps {
		dst := owner[st.In[0]]
		for _, in := range st.In[1:] {
			if owner[in] == rank && rank != dst {
				c.Send(dst, tagCandidates, encodeCandidates(cands[in]))
				delete(cands, in)
			}
		}
		if rank == dst {
			ins := make([]*tslu.Candidates, len(st.In))
			for i, in := range st.In {
				if owner[in] == rank {
					ins[i] = cands[in]
					delete(cands, in)
				} else {
					ins[i] = decodeCandidates(c.Recv(owner[in], tagCandidates))
				}
			}
			cands[st.Out] = tslu.MergeMany(ins)
		}
	}
	rootNode := len(participants) + len(steps) - 1
	if len(steps) == 0 {
		rootNode = 0
	}
	rootRank := owner[rootNode]

	// Broadcast winners and the composite together: [wk, idx..., fac...].
	var buf []float64
	if rank == rootRank {
		root := cands[rootNode]
		buf = make([]float64, 0, 1+wk+wk*wk)
		buf = append(buf, float64(wk))
		for i := 0; i < wk; i++ {
			buf = append(buf, float64(root.Idx[i]))
		}
		fac := root.Fac.View(0, 0, wk, wk)
		for j := 0; j < wk; j++ {
			buf = append(buf, fac.Col(j)...)
		}
	}
	buf = c.Bcast(rootRank, tagComposite, buf)
	kw := int(buf[0])
	winners := make([]int, kw)
	for i := range winners {
		winners[i] = int(buf[1+i])
	}
	composite := matrix.New(kw, kw)
	at := 1 + kw
	for j := 0; j < kw; j++ {
		copy(composite.Col(j), buf[at:at+kw])
		at += kw
	}
	return winners, composite
}

// alignedBlocks partitions m rows into at most p contiguous blocks whose
// boundaries are multiples of b (so every b-row diagonal block has a single
// owner).
func alignedBlocks(m, b, p int) [][2]int {
	mb := (m + b - 1) / b // block rows of height b
	parts := tslu.Partition(mb, p)
	out := make([][2]int, len(parts))
	for i, pr := range parts {
		lo := pr[0] * b
		hi := min(m, pr[1]*b)
		out[i] = [2]int{lo, hi}
	}
	return out
}

// activeRanks lists the ranks owning rows at or below r0, in rank order.
func activeRanks(blocks [][2]int, r0 int) []int {
	var out []int
	for r, blk := range blocks {
		if blk[1] > r0 {
			out = append(out, r)
		}
	}
	return out
}
