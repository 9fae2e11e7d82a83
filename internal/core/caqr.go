package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/abft"
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tsqr"
)

// QRResult is the outcome of a CAQR factorization. Q is stored implicitly:
// each iteration's TSQR tree (leaf reflectors in A, tree-node reflectors in
// the Factorization) is retained so Q and Q^T can be applied.
type QRResult struct {
	// A holds R in its upper triangle; below the diagonal live the leaf
	// Householder vectors of each panel's TSQR.
	A *matrix.Dense
	// Panels holds one TSQR factorization per block column, whose Panel
	// fields are views into A.
	Panels []*tsqr.Factorization
	// Events is the execution trace, non-nil only when Options.Trace is set.
	Events []sched.Event
	// Graph is the executed task graph (retained for inspection).
	Graph *sched.Graph
}

// R returns a copy of the upper-triangular (m >= n) or upper-trapezoidal
// (m < n) factor, of size min(m, n) x n.
func (r *QRResult) R() *matrix.Dense { return lapack.ExtractR(r.A) }

// ApplyQT overwrites c (A.Rows x p) with Q^T * c.
func (r *QRResult) ApplyQT(c *matrix.Dense) {
	if c.Rows != r.A.Rows {
		panic(fmt.Errorf("%w: ApplyQT rows %d want %d", ErrShape, c.Rows, r.A.Rows))
	}
	applyPanelsQT(r, c)
}

// applyPanelsQT runs the per-panel implicit Q^T application without the
// row-count check (internal callers pass views of matching height).
func applyPanelsQT(r *QRResult, c *matrix.Dense) {
	for k, f := range r.Panels {
		r0 := r.panelRow(k)
		f.ApplyQT(c.View(r0, 0, c.Rows-r0, c.Cols))
	}
}

// ApplyQ overwrites c (A.Rows x p) with Q * c.
func (r *QRResult) ApplyQ(c *matrix.Dense) {
	if c.Rows != r.A.Rows {
		panic(fmt.Errorf("%w: ApplyQ rows %d want %d", ErrShape, c.Rows, r.A.Rows))
	}
	for k := len(r.Panels) - 1; k >= 0; k-- {
		r0 := r.panelRow(k)
		r.Panels[k].ApplyQ(c.View(r0, 0, c.Rows-r0, c.Cols))
	}
}

// panelRow returns the first row of panel k.
func (r *QRResult) panelRow(k int) int {
	at := 0
	for i := 0; i < k; i++ {
		at += r.Panels[i].Width
	}
	return at
}

// ExplicitQ forms the thin m x min(m, n) orthogonal factor.
func (r *QRResult) ExplicitQ() *matrix.Dense {
	m := r.A.Rows
	k := min(m, r.A.Cols)
	q := matrix.New(m, k)
	for i := 0; i < k; i++ {
		q.Set(i, i, 1)
	}
	r.ApplyQ(q)
	return q
}

// LeastSquares solves min ||A*x - rhs||_2 for the factored m x n matrix
// (m >= n), returning the n x p solution. rhs is overwritten with Q^T rhs.
func (r *QRResult) LeastSquares(rhs *matrix.Dense) *matrix.Dense {
	if r.A.Rows < r.A.Cols {
		panic(fmt.Errorf("%w: LeastSquares needs an overdetermined system, got %dx%d", ErrShape, r.A.Rows, r.A.Cols))
	}
	n := r.A.Cols
	r.ApplyQT(rhs)
	x := rhs.View(0, 0, n, rhs.Cols).Clone()
	rr := r.R()
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, rr, x)
	return x
}

// CAQR computes the communication-avoiding QR factorization of the m x n
// matrix a, in place, using the multithreaded Algorithm 2 of the paper:
// per-panel TSQR reduction trees whose node transformations also drive the
// trailing-matrix update tasks, dynamically scheduled with look-ahead
// priorities. It returns an error wrapping ErrShape for malformed inputs.
// It is PrepareCAQR, Run on a private pool and Finish.
//
// Wide matrices (m < n) are handled LAPACK-style: the leading m x m block
// is factored and Q^T is applied to the remaining columns, leaving the
// m x n upper-trapezoidal R in place.
func CAQR(a *matrix.Dense, opt Options) (*QRResult, error) {
	p, err := PrepareCAQR(a, opt)
	if err != nil {
		return nil, err
	}
	return p.Finish(Run(context.Background(), nil, p)) // calint:ignore ctx-propagation -- documented ctx-free entry point
}

// BuildCAQRGraph constructs the CAQR task graph without binding numeric
// work, for virtual-time simulation. Like BuildCALUGraph it panics on
// malformed dimensions.
func BuildCAQRGraph(m, n int, opt Options) *sched.Graph {
	if err := opt.normalize(m, n); err != nil {
		panic(err)
	}
	b := newCAQRBuilder(m, n, &opt)
	b.build()
	return b.g
}

// caqrBuilder holds graph-construction state for one CAQR factorization.
type caqrBuilder struct {
	builder
	res *QRResult

	// Verify-mode state. u is the carried checksum vector: it starts as the
	// ones vector and every Householder transform applied to the trailing
	// matrix is also applied to it (tasks C), so after panel k it holds
	// Q_k^T...Q_1^T e and the identity u^T R = e^T A is checkable column by
	// column. ufront orders the C tasks exactly as the matrix frontier
	// orders the S tasks.
	u      *matrix.Dense
	ufront frontier
}

// vtol is the absolute checksum tolerance for the QR identity. The carried
// u has unit columns' worth of mass spread over m entries (|u_i| <= sqrt(m))
// and |R| <= sqrt(m) * max|A|, so predictions scale like m * max|A| with an
// extra sqrt(m) of headroom for the longer accumulation chains.
func (b *caqrBuilder) vtol() float64 {
	fm := float64(b.m)
	return verifyTol * fm * math.Sqrt(fm) * b.maxA
}

// onesVector returns the m x 1 ones vector e, the seed of the carried
// checksum u = Q^T e.
func onesVector(m int) *matrix.Dense {
	u := matrix.New(m, 1)
	col := u.Col(0)
	for i := range col {
		col[i] = 1
	}
	return u
}

func newCAQRBuilder(m, n int, opt *Options) *caqrBuilder {
	return &caqrBuilder{builder: newBuilder(m, n, opt)}
}

func (b *caqrBuilder) build() {
	for k := 0; k < b.nb; k++ {
		b.buildIteration(k)
	}
}

func (b *caqrBuilder) buildIteration(k int) {
	opt := b.opt
	c0, c1 := b.colRange(k)
	w := c1 - c0
	r0 := c0
	mr := b.m - r0

	blocks, levels := tsqr.Plan(mr, w, opt.PanelThreads, opt.Tree)
	groups := b.trailing(k)

	var f *tsqr.Factorization
	if b.a != nil {
		f = &tsqr.Factorization{
			Panel:     b.a.View(r0, c0, mr, w),
			Width:     w,
			TreeShape: opt.Tree,
			Leaves:    make([]tsqr.Leaf, len(blocks)),
			Levels:    make([][]tsqr.Node, len(levels)),
		}
		for l := range levels {
			f.Levels[l] = make([]tsqr.Node, len(levels[l]))
		}
		b.res.Panels = append(b.res.Panels, f)
	}

	// producers maps a carrier's panel-relative row to the task that last
	// produced the R living there, wiring tree-node dependencies.
	producers := make(map[int]*sched.Task)

	// --- Leaf P tasks and their trailing updates (leaf S tasks). ---
	leafTasks := make([]*sched.Task, len(blocks))
	for i, blk := range blocks {
		i := i
		lo, hi := blk[0], blk[1] // panel-relative
		rows := hi - lo
		t := &sched.Task{
			Label:    fmt.Sprintf("P k=%d leaf=%d", k, i),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusP),
			Flops:    qrFlops(rows, w),
			Class:    sched.ClassRecursive,
			Rows:     rows,
		}
		if b.a != nil {
			t.Run = func() { f.Leaves[i] = tsqr.FactorLeaf(f.Panel, lo, rows) }
			t.Out = func() []float64 { return b.a.Col(c0)[r0+lo : r0+hi] }
		}
		b.g.Add(t)
		b.write(t, k, k+1, r0+lo, r0+hi)
		leafTasks[i] = t
		producers[lo] = t

		for _, grp := range groups {
			gc0, gw := grp.c0, grp.w
			s := &sched.Task{
				Label:    fmt.Sprintf("S k=%d leaf=%d j=%d", k, i, grp.j0),
				Kind:     sched.KindS,
				Priority: priority(opt, b.nb, k, grp.j0, bonusS),
				Flops:    4 * float64(rows) * float64(w) * float64(gw),
				Class:    sched.ClassBLAS3,
			}
			if b.a != nil {
				t := s
				t.Run = func() {
					c := b.a.View(r0, gc0, mr, gw)
					f.ApplyLeafQT(i, c)
				}
				t.Out = func() []float64 { return b.a.Col(gc0)[r0+lo : r0+hi] }
			}
			b.g.Add(s)
			b.g.AddDeps(s, t)
			b.write(s, grp.j0, grp.j1, r0+lo, r0+hi)
		}
	}

	// --- Reduction-tree P tasks and their pairwise updates (S tasks). ---
	treeTasks := make([][]*sched.Task, len(levels))
	for l := range levels {
		l := l
		treeTasks[l] = make([]*sched.Task, len(levels[l]))
		for q := range levels[l] {
			q := q
			node := levels[l][q]
			total := 0
			var deps []*sched.Task
			for _, cr := range node.In {
				total += cr.K
				deps = append(deps, producers[cr.Row])
			}
			structured := opt.StructuredTree && len(node.In) == 2 &&
				node.In[0].K == w && node.In[1].K == w
			nodeFlops := qrFlops(total, w)
			if structured {
				// TTQRT: ~(2/3)w^3 elimination + ~(1/3)w^3 T formation.
				nodeFlops = float64(w) * float64(w) * float64(w)
			}
			t := &sched.Task{
				Label:    fmt.Sprintf("P k=%d tree l=%d q=%d", k, l, q),
				Kind:     sched.KindP,
				Priority: priority(opt, b.nb, k, k, bonusP),
				Flops:    nodeFlops,
				Class:    sched.ClassRecursive,
				Rows:     total,
			}
			if b.a != nil {
				in := node.In
				merge := tsqr.MergeCarriers
				if opt.StructuredTree {
					merge = tsqr.MergeCarriersStructured
				}
				t.Run = func() { f.Levels[l][q] = merge(f.Panel, in) }
				// The merged R lives in the output carrier's upper triangle;
				// below its diagonal are reflectors of other nodes, which
				// tasks running concurrently read. The panel's last column
				// holds a whole column of R and nothing else.
				out := node.Out
				t.Out = func() []float64 { return b.a.Col(c0 + w - 1)[r0+out.Row : r0+out.Row+out.K] }
			}
			b.g.Add(t)
			b.g.AddDeps(t, deps...)
			producers[node.Out.Row] = t
			treeTasks[l][q] = t

			for _, grp := range groups {
				gc0, gw := grp.c0, grp.w
				sFlops := 4 * float64(total) * float64(w) * float64(gw)
				if structured {
					// TTMQRT: three triangular multiplies of w x gw.
					sFlops = 3 * float64(w) * float64(w) * float64(gw)
				}
				s := &sched.Task{
					Label:    fmt.Sprintf("S k=%d tree l=%d q=%d j=%d", k, l, q, grp.j0),
					Kind:     sched.KindS,
					Priority: priority(opt, b.nb, k, grp.j0, bonusS),
					Flops:    sFlops,
					Class:    sched.ClassBLAS3,
				}
				if b.a != nil {
					t := s
					t.Run = func() {
						c := b.a.View(r0, gc0, mr, gw)
						f.ApplyNodeQT(l, q, c)
					}
					cr := node.In[0]
					t.Out = func() []float64 { return b.a.Col(gc0)[r0+cr.Row : r0+cr.Row+cr.K] }
				}
				b.g.Add(s)
				b.g.AddDeps(s, t)
				for _, cr := range node.In {
					b.write(s, grp.j0, grp.j1, r0+cr.Row, r0+cr.Row+cr.K)
				}
			}
		}
	}

	// --- Tasks C and V: carry the checksum vector and verify the column. ---
	// Each C task mirrors one S task's transform onto the carried u (the
	// tree applications are genuine orthogonal transforms, so u really is
	// Q^T...Q^T e), ordered by their own frontier exactly as the S tasks are
	// ordered by the matrix frontiers. V then checks u^T R against the
	// original column sums. QR panels are factored in place — there is no
	// pristine source to recompute from — so a V mismatch always escalates
	// to ErrCorrupted and the full-retry rung of the recovery ladder.
	if b.verifyOn() {
		uview := b.u.View(r0, 0, mr, 1)
		for i, blk := range blocks {
			i := i
			lo, hi := blk[0], blk[1]
			c := &sched.Task{
				Label:    fmt.Sprintf("C k=%d leaf=%d", k, i),
				Kind:     sched.KindS,
				Priority: priority(opt, b.nb, k, k, bonusV),
				Flops:    4 * float64(hi-lo) * float64(w),
				Class:    sched.ClassBLAS2,
			}
			t := c
			t.Run = func() { f.ApplyLeafQT(i, uview) }
			b.g.Add(c)
			b.g.AddDeps(c, leafTasks[i])
			b.g.AddDeps(c, b.ufront.write(r0+lo, r0+hi, c)...)
		}
		for l := range levels {
			l := l
			for q := range levels[l] {
				q := q
				node := levels[l][q]
				total := 0
				for _, cr := range node.In {
					total += cr.K
				}
				c := &sched.Task{
					Label:    fmt.Sprintf("C k=%d tree l=%d q=%d", k, l, q),
					Kind:     sched.KindS,
					Priority: priority(opt, b.nb, k, k, bonusV),
					Flops:    4 * float64(total) * float64(w),
					Class:    sched.ClassSmall,
				}
				t := c
				t.Run = func() { f.ApplyNodeQT(l, q, uview) }
				b.g.Add(c)
				b.g.AddDeps(c, treeTasks[l][q])
				for _, cr := range node.In {
					b.g.AddDeps(c, b.ufront.write(r0+cr.Row, r0+cr.Row+cr.K, c)...)
				}
			}
		}
		v := &sched.Task{
			Label:    fmt.Sprintf("V k=%d", k),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusV),
			Flops:    2 * float64(c1) * float64(w),
			Class:    sched.ClassBLAS2,
			Rows:     b.m,
		}
		t := v
		t.Run = func() {
			if bad := abft.VerifyQRColumns(b.a, b.u.Col(0), c0, c1, b.wsums, b.vtol()); bad != -1 {
				// A finite input can overflow, and then it fails for good,
				// as Finish would fail it. Orthogonal transforms keep R's
				// entries within sqrt(m)*max|A|, and the reflector products'
				// partial sums (|v_i| <= 1) within about m*max|A|. Below
				// max|A| = MaxFloat64/m nothing overflows, so a non-finite
				// R there is corruption, which a retry recovers.
				if b.maxA > math.MaxFloat64/float64(b.m) {
					if err := overflowed(b.a, c0, c1); err != nil {
						panic(err)
					}
				}
				if cb := b.opt.OnCorruption; cb != nil {
					cb(k)
				}
				panic(fmt.Errorf("%w: CAQR column %d checksum mismatch (panel %d)", ErrCorrupted, bad, k))
			}
		}
		b.g.Add(v)
		b.g.AddDeps(v, producers[0])
		b.g.AddDeps(v, b.fronts[k].read(0, b.m)...)
		b.g.AddDeps(v, b.ufront.read(0, b.m)...)
	}
}

// qrFlops is the canonical Householder QR flop count for an r x c block.
func qrFlops(r, c int) float64 {
	fr, fc := float64(r), float64(c)
	if fr < fc {
		fc = fr
	}
	return 2 * fc * fc * (fr - fc/3)
}
