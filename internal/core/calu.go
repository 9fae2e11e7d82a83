package core

import (
	"context"
	"fmt"

	"repro/internal/abft"
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/tslu"
)

// LUResult is the outcome of a CALU factorization.
type LUResult struct {
	// A holds the in-place factors: L unit lower (below the diagonal) and
	// U upper, with row interchanges already applied (so P*Aorig = L*U).
	A *matrix.Dense
	// Ipiv is P in LAPACK form, length min(m, n): row i was interchanged
	// with row Ipiv[i] >= i, for i = 0, 1, ... in order (lapack.LASWP).
	// Iteration K's panel wrote the entries from K*b to the panel's end.
	Ipiv []int
	// Events is the execution trace, non-nil only when Options.Trace is set.
	Events []sched.Event
	// Graph is the executed task graph (retained for inspection).
	Graph *sched.Graph
	// FallbackPanels lists the iterations whose panel the pivot-growth
	// guardrail re-factored with GEPP (see Options.GrowthThreshold), in
	// ascending order. Empty when the guardrail is off or never tripped.
	FallbackPanels []int
	// RecomputedPanels lists the iterations whose panel verify mode
	// (Options.Verify) recomputed in place after a checksum mismatch, in
	// ascending order. Empty when verify is off or nothing was corrupted.
	RecomputedPanels []int
}

// CALU computes the communication-avoiding LU factorization with tournament
// pivoting of the m x n matrix a, in place, using the multithreaded
// Algorithm 1 of the paper: dynamic scheduling of P/L/U/S tasks with
// look-ahead priorities. It returns an error wrapping ErrShape for
// malformed inputs and one wrapping ErrSingular if a panel is rank
// deficient. It is PrepareCALU, Run on a private pool and Finish.
//
// Wide matrices (m < n) are handled LAPACK-style: the leading m x m block
// is factored, and the remaining columns are overwritten with
// U(:, m:) = L^{-1} P A(:, m:).
func CALU(a *matrix.Dense, opt Options) (*LUResult, error) {
	p, err := PrepareCALU(a, opt)
	if err != nil {
		return nil, err
	}
	return p.Finish(Run(context.Background(), nil, p)) // calint:ignore ctx-propagation -- documented ctx-free entry point
}

// BuildCALUGraph constructs the CALU task graph for an m x n matrix without
// binding numeric work: tasks carry only flop counts, kernel classes and
// priorities. Package simsched executes such graphs in virtual time for the
// paper-scale modeled experiments. It panics on malformed dimensions, since
// the experiment code that calls it is in full control of them.
func BuildCALUGraph(m, n int, opt Options) *sched.Graph {
	if err := opt.normalize(m, n); err != nil {
		panic(err)
	}
	b := newCALUBuilder(m, n, &opt)
	b.build()
	return b.g
}

// caluBuilder holds graph-construction state for one CALU factorization.
type caluBuilder struct {
	builder

	// Per-iteration results of a bound build. ipiv is LUResult.Ipiv: each
	// panel's finalize task writes its segment [c0, c1).
	ipiv     []int
	errs     []error
	fellBack []bool // growth guardrail took the GEPP path

	// Verify-mode state (nil / zero unless Options.Verify is set and the
	// builder is bound). vsums accumulates the finished L columns' sums, one
	// panel per V task (the V tasks form a chain, so vsums needs no lock).
	// nRecomp is only touched by finalize tasks, which are transitively
	// ordered.
	vsums      []float64
	vprev      *sched.Task // previous panel's V task (chain)
	vpoison    bool        // a singular panel invalidated the checksum chain
	nRecomp    int         // panel recomputations spent against MaxPanelRecomputes
	recomputed []bool      // per iteration: panel recomputed after corruption
}

// vtol is the absolute checksum tolerance: predicted and actual column sums
// agree to roughly machine precision times the sum's own magnitude (at most
// m entries of size max|A|, times modest growth), so verifyTol * m * max|A|
// leaves orders of magnitude of slack below any injected fault.
func (b *caluBuilder) vtol() float64 {
	return verifyTol * float64(b.m) * b.maxA
}

// taintedBefore reports whether any panel before k failed: a rank-deficient
// panel leaves the trailing matrix meaningless (the zero-diagonal Trsm
// produces non-finite values), so downstream checksum gates must not
// misreport the wreckage as corruption. Finalize tasks are transitively
// ordered, so reading earlier panels' errors here is race-free.
func (b *caluBuilder) taintedBefore(k int) bool {
	for j := 0; j < k; j++ {
		if b.errs[j] != nil {
			return true
		}
	}
	return false
}

func newCALUBuilder(m, n int, opt *Options) *caluBuilder {
	b := &caluBuilder{builder: newBuilder(m, n, opt)}
	b.ipiv = make([]int, n)
	b.errs = make([]error, b.nb)
	b.fellBack = make([]bool, b.nb)
	return b
}

func (b *caluBuilder) build() {
	vs := make([]*sched.Task, b.nb) // each panel's V task, nil unless verifying
	var fin *sched.Task
	for k := 0; k < b.nb; k++ {
		fin, vs[k] = b.buildIteration(k)
	}

	// --- Left swaps (Algorithm 1 lines 40-41): one task per finished block
	// column applies every later panel's interchanges, ipiv[c1 : n), in one
	// pass once the last finalize (fin) has written the last segment. They
	// move rows >= c1 of the column's L. The frontier records writers, not
	// readers, so that write-after-read order is wired here: the column's
	// L and S tasks all precede fin (each S task feeds a later panel, and
	// finalize tasks are transitively ordered), and in verify mode its V
	// task gates nothing else.
	for j := 0; j < b.nb-1; j++ {
		c0, c1 := b.colRange(j)
		t := &sched.Task{
			Label:    fmt.Sprintf("U left j=%d", j),
			Kind:     sched.KindU,
			Priority: priority(b.opt, b.nb, b.nb-1, j, bonusU),
			Flops:    float64((b.n - c1) * (c1 - c0)), // swap bookkeeping
			Class:    sched.ClassSmall,
		}
		if b.a != nil {
			t.Run = func() { lapack.LASWP(b.a.View(0, c0, b.m, c1-c0), b.ipiv, c1, b.n) }
		}
		b.g.Add(t)
		b.g.AddDeps(t, fin, vs[j])
	}
}

// buildIteration adds iteration k's tasks and returns its finalize task and,
// in verify mode, its V task.
func (b *caluBuilder) buildIteration(k int) (fin, v *sched.Task) {
	opt := b.opt
	c0, c1 := b.colRange(k)
	r0 := c0
	w := c1 - c0
	mr := b.m - r0 // active rows

	// --- Panel preprocessing: tournament over Tr block rows (tasks P). ---
	blocks := tslu.Partition(mr, opt.PanelThreads)
	nLeaves := len(blocks)
	// Candidate slots: leaves first, merge results appended after.
	var cands []*tslu.Candidates
	if b.a != nil {
		cands = make([]*tslu.Candidates, nLeaves, 2*nLeaves)
	}

	leafTasks := make([]*sched.Task, nLeaves)
	leafK := make([]int, nLeaves) // candidate row counts per slot
	for i, blk := range blocks {
		i := i
		lo, hi := r0+blk[0], r0+blk[1]
		rows := hi - lo
		kk := min(rows, w)
		leafK[i] = kk
		t := &sched.Task{
			Label:    fmt.Sprintf("P k=%d leaf=%d", k, i),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusP),
			Flops:    luFlops(rows, w),
			Class:    sched.ClassRecursive,
			Rows:     rows,
		}
		if b.a != nil {
			block := b.a.View(lo, c0, rows, w)
			t.Run = func() { cands[i] = tslu.Leaf(block, lo) }
			// The candidate rows are what flows up the tournament; the root
			// node's Out is overridden below to its composite factor.
			t.Out = func() []float64 { return candRows(cands, i) }
		}
		b.g.Add(t)
		b.g.AddDeps(t, b.fronts[k].read(lo, hi)...)
		leafTasks[i] = t
	}

	// Reduction tree (tasks P at inner nodes). The merge schedule comes
	// from tslu.PlanReduction, so binary, flat and hybrid trees all flow
	// through the same task construction.
	type nodeRef struct {
		task *sched.Task
		slot int // index into cands
		k    int // candidate rows
	}
	nodes := make([]nodeRef, nLeaves)
	for i := range leafTasks {
		nodes[i] = nodeRef{task: leafTasks[i], slot: i, k: leafK[i]}
	}
	for _, st := range tslu.PlanReduction(nLeaves, opt.Tree) {
		total := 0
		deps := make([]*sched.Task, len(st.In))
		ins := make([]int, len(st.In))
		for i, idx := range st.In {
			total += nodes[idx].k
			deps[i] = nodes[idx].task
			ins[i] = nodes[idx].slot
		}
		slot := -1
		if b.a != nil {
			cands = append(cands, nil)
			slot = len(cands) - 1
		}
		t := &sched.Task{
			Label:    fmt.Sprintf("P k=%d merge out=%d", k, st.Out),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusP),
			Flops:    luFlops(total, w),
			Class:    sched.ClassRecursive,
			Rows:     total,
		}
		if b.a != nil {
			t.Run = func() {
				cs := make([]*tslu.Candidates, len(ins))
				for i, s := range ins {
					cs[i] = cands[s]
				}
				cands[slot] = tslu.MergeMany(cs)
			}
			t.Out = func() []float64 { return candRows(cands, slot) }
		}
		b.g.Add(t)
		b.g.AddDeps(t, deps...)
		nodes = append(nodes, nodeRef{task: t, slot: slot, k: min(total, w)})
	}
	rootRef := nodes[len(nodes)-1]
	if b.a != nil {
		// The tournament root's consequential output is its composite factor
		// (finalize reads Fac and Idx; a root's candidate rows go nowhere).
		rootSlot := rootRef.slot
		rootRef.task.Out = func() []float64 {
			if c := cands[rootSlot]; c != nil {
				return c.Fac.Data
			}
			return nil
		}
	}

	// --- Finalize: write the panel's ipiv segment, pivot the panel, write
	// the composite. ---
	fin = &sched.Task{
		Label:    fmt.Sprintf("F k=%d", k),
		Kind:     sched.KindP,
		Priority: priority(opt, b.nb, k, k, bonusFinalize),
		Flops:    float64(w * w), // swap bookkeeping + composite copy
		Class:    sched.ClassSmall,
	}
	if b.a != nil {
		rootSlot := rootRef.slot
		t := fin
		t.Run = func() {
			root := cands[rootSlot]
			// ABFT gate: before anything is written back, the tournament's
			// composite must reproduce the column sums of the winner rows it
			// claims to factor — those rows are still pristine in a, so a
			// mismatch means silent corruption somewhere in the reduction
			// tree, and the panel can be recomputed locally from source. A
			// rank-deficient earlier panel leaves the trailing matrix
			// non-finite, so the gate goes inert then (like the V chain)
			// rather than converting the permanent ErrSingular into a
			// retryable ErrCorrupted.
			if b.verifyOn() && !b.taintedBefore(k) && !abft.VerifyLUPanel(b.a, root.Idx, root.Fac, c0, b.vtol()) {
				if cb := b.opt.OnCorruption; cb != nil {
					cb(k)
				}
				if b.opt.MaxPanelRecomputes < 0 || b.nRecomp >= b.opt.MaxPanelRecomputes {
					panic(fmt.Errorf("%w: CALU panel %d composite checksum mismatch, recompute budget exhausted", ErrCorrupted, k))
				}
				b.nRecomp++
				b.recomputed[k] = true
				t.Label += " [abft-recompute]"
				b.geppFallback(k, r0, c0, w)
				if cb := b.opt.OnPanelRecompute; cb != nil {
					cb(k)
				}
				return
			}
			// Pivot-growth guardrail: tournament pivoting's growth bound
			// (2^(b*H)) is weaker than GEPP's, so when the composite's
			// max|U| blows past the threshold the whole panel is
			// re-factored with straight partial pivoting instead. The
			// tournament tasks never wrote to a (they factor pooled scratch
			// copies), so the panel is still pristine here.
			if thr := b.opt.GrowthThreshold; thr > 0 && b.maxA > 0 &&
				lapack.MaxUpper(root.Fac) > thr*b.maxA {
				b.fellBack[k] = true
				t.Label += " [gepp-fallback]"
				b.geppFallback(k, r0, c0, w)
				return
			}
			copy(b.ipiv[r0:c1], tslu.BuildSwaps(root.Idx, r0))
			colView := b.a.View(0, c0, b.m, w)
			lapack.LASWP(colView, b.ipiv, r0, c1)
			kk := root.Fac.Rows
			colView.View(r0, 0, kk, w).CopyFrom(root.Fac)
			if kk < min(mr, w) {
				b.errs[k] = tslu.ErrSingular
				return
			}
			for i := 0; i < min(kk, w); i++ {
				if root.Fac.At(i, i) == 0 {
					b.errs[k] = tslu.ErrSingular
					return
				}
			}
		}
		fin.Out = func() []float64 { return b.a.Col(c0)[r0 : r0+min(mr, w)] }
	}
	b.g.Add(fin)
	b.g.AddDeps(fin, rootRef.task)
	b.write(fin, k, k+1, r0, b.m)

	// --- Tasks L: remaining rows of the panel's L factor. ---
	lRows0 := r0 + w
	var lBlocks [][2]int
	if lRows0 < b.m {
		lBlocks = tslu.Partition(b.m-lRows0, opt.PanelThreads)
	}
	// Each L task packs its block of L, and each U task its block of U,
	// once for the S tasks that multiply them: one per column group for an
	// L block, one per L block for a U block. The widest group (the first)
	// and the shortest L block (the last) tell blas whether any of those
	// products packs at all.
	groups := b.trailing(k)
	lPacks := make([]blas.PackedA, len(lBlocks))
	uPacks := make([]blas.PackedB, len(groups))
	nMax, mMin := 0, 0
	if len(groups) > 0 {
		nMax = groups[0].w
	}
	if len(lBlocks) > 0 {
		last := lBlocks[len(lBlocks)-1]
		mMin = last[1] - last[0]
	}
	lTasks := make([]*sched.Task, len(lBlocks))
	for i, blk := range lBlocks {
		lo, hi := lRows0+blk[0], lRows0+blk[1]
		rows := hi - lo
		t := &sched.Task{
			Label:    fmt.Sprintf("L k=%d i=%d", k, i),
			Kind:     sched.KindL,
			Priority: priority(opt, b.nb, k, k, bonusL),
			Flops:    float64(rows) * float64(w) * float64(w),
			Class:    sched.ClassBLAS3,
		}
		if b.a != nil {
			lp := &lPacks[i]
			t.Run = func() {
				ukk := b.a.View(r0, c0, w, w)
				lblk := b.a.View(lo, c0, rows, w)
				blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, ukk, lblk)
				lp.Pack(-1, lblk, nMax, len(groups))
			}
			t.Out = func() []float64 { return b.a.Col(c0)[lo:hi] }
		}
		b.g.Add(t)
		b.write(t, k, k+1, lo, hi)
		lTasks[i] = t
	}

	// --- Tasks U and S over the trailing block columns. ---
	for g, grp := range groups {
		gc0, gw := grp.c0, grp.w
		u := &sched.Task{
			Label:    fmt.Sprintf("U k=%d j=%d", k, grp.j0),
			Kind:     sched.KindU,
			Priority: priority(opt, b.nb, k, grp.j0, bonusU),
			Flops:    float64(w) * float64(w) * float64(gw),
			Class:    sched.ClassBLAS3,
		}
		if b.a != nil {
			t := u
			up := &uPacks[g]
			t.Run = func() {
				lapack.LASWP(b.a.View(0, gc0, b.m, gw), b.ipiv, r0, c1)
				lkk := b.a.View(r0, c0, w, w)
				ukj := b.a.View(r0, gc0, w, gw)
				blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, lkk, ukj)
				up.Pack(ukj, mMin, len(lBlocks))
			}
			t.Out = func() []float64 { return b.a.Col(gc0)[r0 : r0+w] }
		}
		b.g.Add(u)
		b.g.AddDeps(u, fin)
		b.write(u, grp.j0, grp.j1, r0, b.m)

		for i, blk := range lBlocks {
			lo, hi := lRows0+blk[0], lRows0+blk[1]
			rows := hi - lo
			s := &sched.Task{
				Label:    fmt.Sprintf("S k=%d i=%d j=%d", k, i, grp.j0),
				Kind:     sched.KindS,
				Priority: priority(opt, b.nb, k, grp.j0, bonusS),
				Flops:    2 * float64(rows) * float64(w) * float64(gw),
				Class:    sched.ClassBLAS3,
			}
			if b.a != nil {
				t := s
				lp, up := &lPacks[i], &uPacks[g]
				t.Run = func() {
					blas.GemmPacked(lp, up, b.a.View(lo, gc0, rows, gw))
					lp.Release()
					up.Release()
				}
				t.Out = func() []float64 { return b.a.Col(gc0)[lo:hi] }
			}
			b.g.Add(s)
			b.g.AddDeps(s, u, lTasks[i])
			b.write(s, grp.j0, grp.j1, lo, hi)
		}
	}

	// --- Task V: ABFT checksum verification of the finished block column.
	// By this point rows [0, r0) of the column hold final U entries (written
	// by earlier panels' U tasks and never touched again — later row swaps
	// anchor below them) and rows [r0, m) hold the panel's L\U, so the
	// column-sum identity over the original matrix is checkable. The V tasks
	// chain (each reads the L sums its predecessors accumulated) and gate
	// nothing but the next V and their column's left-swap task, so
	// verification rides the graph's slack.
	if b.verifyOn() {
		v = &sched.Task{
			Label:    fmt.Sprintf("V k=%d", k),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusV),
			Flops:    2 * float64(b.m) * float64(w),
			Class:    sched.ClassBLAS2,
			Rows:     b.m,
		}
		t := v
		t.Run = func() {
			// A rank-deficient panel leaves the column incomplete; flagging
			// it as corrupted would convert the permanent ErrSingular into a
			// retryable error, so the chain goes inert instead.
			if b.vpoison || b.errs[k] != nil {
				b.vpoison = true
				return
			}
			abft.AccumulateLSums(b.a, c0, c1, b.vsums)
			if bad := abft.VerifyLUColumns(b.a, c0, c1, b.vsums, b.wsums, b.vtol()); bad != -1 {
				if cb := b.opt.OnCorruption; cb != nil {
					cb(k)
				}
				panic(fmt.Errorf("%w: CALU column %d checksum mismatch (panel %d)", ErrCorrupted, bad, k))
			}
		}
		b.g.Add(v)
		b.g.AddDeps(v, b.fronts[k].read(0, b.m)...)
		b.g.AddDeps(v, b.vprev)
		b.vprev = v
	}
	return fin, v
}

// candRows exposes a tournament candidate's row buffer for fault injection
// (sched.Task.Out); nil until the task has produced its candidate.
func candRows(cands []*tslu.Candidates, slot int) []float64 {
	if c := cands[slot]; c != nil {
		return c.Rows.Data
	}
	return nil
}

// geppFallback re-factors iteration k's panel with straight partial
// pivoting (the recursive GEPP kernel) after the growth guardrail tripped
// or verify mode caught a corrupted tournament, producing output in exactly
// the tournament finalize's shape: RGETF2 writes the iteration's ipiv
// segment, offset to absolute rows and applied to the full block column,
// and the factor's leading square block becomes the composite L\U — the
// downstream L/U/S tasks cannot tell which pivoting produced them. A
// rank-deficient panel is recorded in b.errs like the tournament path does.
// In verify mode the recomputed factor must itself reproduce the panel's
// pre-factoring column sums; a recomputation that disagrees again escalates
// to ErrCorrupted (the recovery ladder's next rung: full retry from the
// original matrix).
func (b *caluBuilder) geppFallback(k, r0, c0, w int) {
	mr := b.m - r0
	panel := scratch.Dense(mr, w)
	panel.CopyFrom(b.a.View(r0, c0, mr, w))
	var ws []float64
	if b.verifyOn() {
		ws = scratch.Get(w)
		defer scratch.Put(ws)
		abft.ColumnSums(panel, ws)
	}
	kk := min(mr, w)
	seg := b.ipiv[r0 : r0+kk]
	err := lapack.RGETF2(panel, seg)
	if b.verifyOn() && err == nil && !abft.VerifyGEPPPanel(panel, ws, b.vtol()) {
		scratch.Release(panel)
		panic(fmt.Errorf("%w: CALU panel %d recomputation failed verification", ErrCorrupted, k))
	}
	for j := range seg {
		seg[j] += r0
	}
	colView := b.a.View(0, c0, b.m, w)
	lapack.LASWP(colView, b.ipiv, r0, r0+kk)
	colView.View(r0, 0, kk, w).CopyFrom(panel.View(0, 0, kk, w))
	scratch.Release(panel)
	if err != nil {
		b.errs[k] = tslu.ErrSingular
	}
}

// luFlops is the canonical GEPP flop count for an r x c block, r >= 0.
func luFlops(r, c int) float64 {
	fr, fc := float64(r), float64(c)
	return fr*fc*fc - fc*fc*fc/3
}

// SolveRefined solves A*x = rhs with iterative refinement: orig must be the
// original (unfactored) matrix. rhs is overwritten with the refined
// solution; the returned value is the final correction's max-norm, a cheap
// convergence indicator.
func (r *LUResult) SolveRefined(orig *matrix.Dense, rhs *matrix.Dense, iters int) float64 {
	if orig.Rows != r.A.Rows || orig.Cols != r.A.Cols {
		panic(fmt.Errorf("%w: SolveRefined original matrix has wrong shape", ErrShape))
	}
	b := rhs.Clone()
	lapack.LUSolve(r.A, r.Ipiv, rhs) // rhs now holds x0
	last := 0.0
	for it := 0; it < iters; it++ {
		// residual = b - A x
		resid := b.Clone()
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, orig, rhs, 1, resid)
		lapack.LUSolve(r.A, r.Ipiv, resid)
		for j := 0; j < rhs.Cols; j++ {
			x, d := rhs.Col(j), resid.Col(j)
			for i := range x {
				x[i] += d[i]
			}
		}
		last = resid.MaxAbs()
	}
	return last
}
