package core

// The request pipeline. Every CALU/CAQR factorization — solo, coalesced
// with others into one submission, or filling a result cache — runs the
// same three steps:
//
//   - PrepareCALU/PrepareCAQR validate the input, scan it for non-finite
//     entries and build its task graph without running anything;
//   - Run executes prepared requests on a sched.Pool: one request alone
//     under its own trace option, or several merged into a single
//     submission — aggregating small operations into fewer, larger ones,
//     the communication-avoiding idea applied at the request level;
//   - Finish does the post-execution bookkeeping: per-panel error
//     reporting and, for a wide matrix, the update of the columns right of
//     its leading square block. Every pivot application, the deferred left
//     swaps included, runs inside the graph.
//
// A prepared request is single-use: its graph is consumed by the Run that
// executes it.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// Request is a prepared factorization, a *PreparedLU or a *PreparedQR,
// ready for Run.
type Request interface {
	// Graph returns the request's task graph.
	Graph() *sched.Graph
	options() *Options
	attach(events []sched.Event, g *sched.Graph)
}

// Run executes prepared requests on pool and returns the submission's
// error, which the caller hands to each request's Finish.
//
// A single request is submitted alone with its own Trace option, and its
// trace and graph are attached to its result. Several requests are merged
// into one untraced submission; the merge empties their graphs, and a task
// failure fails every request of the batch. A nil pool runs the requests
// on a private pool sized by their largest Workers option; a shared pool
// ignores Workers.
//
// Once ctx is cancelled or its deadline expires, the submission stops
// dispatching tasks (ones already executing finish; the rest are drained
// unrun) and the returned error wraps ctx's error. The pool itself stays
// usable and concurrent submissions are unaffected. Cancelled runs leak
// nothing: every internal/scratch workspace is acquired and released
// inside a single task's Run, so skipped tasks never acquire one.
func Run(ctx context.Context, pool *sched.Pool, reqs ...Request) error {
	if len(reqs) == 0 {
		return nil
	}
	g, opt := reqs[0].Graph(), reqs[0].options()
	so := sched.SubmitOptions{Trace: opt.Trace}
	workers := opt.Workers
	if len(reqs) > 1 {
		graphs := make([]*sched.Graph, len(reqs))
		for i, r := range reqs {
			graphs[i] = r.Graph()
			workers = max(workers, r.options().Workers)
		}
		g, so = sched.MergeGraphs(graphs...), sched.SubmitOptions{}
	}
	if pool == nil {
		pool = sched.NewPool(workers)
		defer pool.Close()
	}
	sub, err := pool.SubmitCtx(ctx, g, so)
	if err != nil {
		return err
	}
	events, err := sub.Wait()
	if len(reqs) == 1 {
		reqs[0].attach(events, g)
	}
	return err
}

// prepareInput validates a, scans it for non-finite entries and normalizes
// opt for the block the task graph factors: a itself when m >= n, or its
// leading m x m block when a is wide. It returns that block, its max|A|
// (the growth guardrail's denominator) and, in verify mode, a's column
// sums.
func prepareInput(a *matrix.Dense, opt *Options) (*matrix.Dense, float64, []float64, error) {
	if a == nil {
		return nil, 0, nil, fmt.Errorf("%w: nil matrix", ErrShape)
	}
	if a.Rows < 1 || a.Cols < 1 {
		return nil, 0, nil, fmt.Errorf("%w: %dx%d matrix", ErrShape, a.Rows, a.Cols)
	}
	var wsums []float64
	if opt.Verify {
		wsums = make([]float64, a.Cols)
	}
	maxA, err := scanFinite(a, wsums)
	if err != nil {
		return nil, 0, nil, err
	}
	sq := a
	if a.Rows < a.Cols {
		sq = a.View(0, 0, a.Rows, a.Rows)
	}
	if err := opt.normalize(sq.Rows, sq.Cols); err != nil {
		return nil, 0, nil, err
	}
	return sq, maxA, wsums, nil
}

// wideRight returns the columns of a right of its leading square block, or
// nil when a is not wide.
func wideRight(a *matrix.Dense) *matrix.Dense {
	if a.Rows >= a.Cols {
		return nil
	}
	return a.View(0, a.Rows, a.Rows, a.Cols-a.Rows)
}

// PreparedLU is one validated CALU request whose task graph has been built
// but not yet executed. Execute it with Run, then call Finish.
type PreparedLU struct {
	b   *caluBuilder
	res *LUResult
}

// PrepareCALU validates a and builds its CALU task graph without executing
// it. A wide a (m < n) gets the graph of its leading m x m block; Finish
// updates the remaining columns.
func PrepareCALU(a *matrix.Dense, opt Options) (*PreparedLU, error) {
	sq, maxA, wsums, err := prepareInput(a, &opt)
	if err != nil {
		return nil, err
	}
	b := newCALUBuilder(sq.Rows, sq.Cols, &opt)
	b.a, b.maxA, b.wsums = sq, maxA, wsums
	if opt.Verify {
		b.vsums = make([]float64, sq.Cols)
		b.recomputed = make([]bool, b.nb)
	}
	b.build()
	return &PreparedLU{b: b, res: &LUResult{A: a}}, nil
}

// Graph returns the request's task graph. Run consumes it; Finish does not
// depend on it afterwards.
func (p *PreparedLU) Graph() *sched.Graph { return p.b.g }

func (p *PreparedLU) options() *Options { return p.b.opt }

func (p *PreparedLU) attach(events []sched.Event, g *sched.Graph) {
	p.res.Events, p.res.Graph = events, g
}

// Finish completes the request after Run: runErr is Run's error. Every row
// interchange has been applied by then, the ones left of each panel
// (Algorithm 1 line 41) by the graph's left-swap tasks. On success Finish
// reports the first singular panel, fills in the result and, for a wide
// matrix, overwrites the columns right of the leading square block with
// U(:, m:) = L^{-1} P A(:, m:). It returns a nil result with any
// error; on a non-nil runErr it returns at once without reading the
// request's state, so it is safe to call while an abandoned submission is
// still running. The Events and Graph fields are set only for a request
// Run executed alone.
func (p *PreparedLU) Finish(runErr error) (*LUResult, error) {
	if runErr != nil {
		return nil, fmt.Errorf("core: CALU execution failed: %w", runErr)
	}
	b, res := p.b, p.res
	for k, err := range b.errs {
		if err != nil {
			return nil, fmt.Errorf("core: CALU panel %d: %w", k, err)
		}
	}
	res.Ipiv = b.ipiv
	for k, fb := range b.fellBack {
		if fb {
			res.FallbackPanels = append(res.FallbackPanels, k)
		}
	}
	for k, rc := range b.recomputed {
		if rc {
			res.RecomputedPanels = append(res.RecomputedPanels, k)
		}
	}
	if right := wideRight(res.A); right != nil {
		lapack.LASWP(right, res.Ipiv, 0, len(res.Ipiv))
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, b.a, right)
	}
	return res, nil
}

// PreparedQR is one validated CAQR request whose task graph has been built
// but not yet executed, the QR analogue of PreparedLU.
type PreparedQR struct {
	b   *caqrBuilder
	res *QRResult
}

// PrepareCAQR validates a and builds its CAQR task graph without executing
// it, handling a wide a like PrepareCALU.
func PrepareCAQR(a *matrix.Dense, opt Options) (*PreparedQR, error) {
	sq, maxA, wsums, err := prepareInput(a, &opt)
	if err != nil {
		return nil, err
	}
	res := &QRResult{A: a}
	b := newCAQRBuilder(sq.Rows, sq.Cols, &opt)
	b.a, b.res, b.maxA, b.wsums = sq, res, maxA, wsums
	if opt.Verify {
		b.u = onesVector(sq.Rows)
	}
	b.build()
	return &PreparedQR{b: b, res: res}, nil
}

// Graph returns the request's task graph; see PreparedLU.Graph.
func (p *PreparedQR) Graph() *sched.Graph { return p.b.g }

func (p *PreparedQR) options() *Options { return p.b.opt }

func (p *PreparedQR) attach(events []sched.Event, g *sched.Graph) {
	p.res.Events, p.res.Graph = events, g
}

// Finish completes the request after Run, with the same error contract as
// PreparedLU.Finish. A finite input whose Householder norms overflow (an
// entry near MaxFloat64) leaves a non-finite R; Finish reads R's min(m, n)
// diagonal entries and fails such a request with an error wrapping
// ErrNonFinite that names the first non-finite one. For a wide matrix it
// then applies Q^T to the columns right of the leading square block,
// leaving the m x n upper-trapezoidal R.
func (p *PreparedQR) Finish(runErr error) (*QRResult, error) {
	if runErr != nil {
		return nil, fmt.Errorf("core: CAQR execution failed: %w", runErr)
	}
	a := p.res.A
	if err := overflowed(a, 0, min(a.Rows, a.Cols)); err != nil {
		return nil, err
	}
	if right := wideRight(a); right != nil {
		applyPanelsQT(p.res, right)
	}
	return p.res, nil
}

// overflowed returns an error wrapping ErrNonFinite that names the first
// non-finite diagonal entry R(j,j), j in [j0, j1), of a QR factor, or nil.
func overflowed(a *matrix.Dense, j0, j1 int) error {
	for j := j0; j < j1; j++ {
		if r := a.At(j, j); !(math.Abs(r) <= math.MaxFloat64) {
			return fmt.Errorf("%w: R(%d,%d) = %v, the factorization overflowed", ErrNonFinite, j, j, r)
		}
	}
	return nil
}
