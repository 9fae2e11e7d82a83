package dist

import (
	"math"
	"testing"

	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/tslu"
)

func TestWorldPointToPoint(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 9)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv %v", got)
			}
		}
	})
	if w.MessagesSent(0) != 1 || w.WordsSent(0) != 3 {
		t.Fatalf("stats: %d msgs %d words", w.MessagesSent(0), w.WordsSent(0))
	}
	if w.MessagesSent(1) != 0 {
		t.Fatal("receiver should send nothing")
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8, 13} {
		for root := 0; root < size; root++ {
			w := NewWorld(size)
			got := make([][]float64, size)
			w.Run(func(c *Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{float64(root), 42}
				}
				got[c.Rank()] = c.Bcast(root, 5, data)
			})
			for r, g := range got {
				if len(g) != 2 || g[0] != float64(root) || g[1] != 42 {
					t.Fatalf("size=%d root=%d rank=%d got %v", size, root, r, g)
				}
			}
			// A binomial broadcast sends exactly size-1 messages in total.
			if w.TotalMessages() != int64(size-1) {
				t.Fatalf("size=%d root=%d: %d messages", size, root, w.TotalMessages())
			}
		}
	}
}

func TestDistTSLUMatchesSharedMemory(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m, b := 128, 8
		panel := matrix.Random(m, b, int64(p*100))
		w := NewWorld(p)
		winners := TSLU(w, panel, p)

		// Shared-memory reference with the same partition and tree.
		blocks := tslu.Partition(m, p)
		leaves := make([]*tslu.Candidates, len(blocks))
		for i, blk := range blocks {
			leaves[i] = tslu.Leaf(panel.View(blk[0], 0, blk[1]-blk[0], b), blk[0])
		}
		want := tslu.Reduce(leaves, tslu.Binary).Idx

		for rank := 0; rank < p; rank++ {
			if len(winners[rank]) != len(want) {
				t.Fatalf("p=%d rank=%d: %d winners want %d", p, rank, len(winners[rank]), len(want))
			}
			for i := range want {
				if winners[rank][i] != want[i] {
					t.Fatalf("p=%d rank=%d: winners %v want %v", p, rank, winners[rank], want)
				}
			}
		}
	}
}

func TestDistGEPPMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m, b := 64, 8
		orig := matrix.Random(m, b, int64(p*31))
		panel := orig.Clone()
		w := NewWorld(p)
		pivots := GEPP(w, panel, p)

		// Sequential reference: GETF2's ipiv[j] is the position of the
		// pivot at step j, exactly the convention the distributed version
		// reports.
		ref := orig.Clone()
		ipiv := make([]int, b)
		if err := lapack.GETF2(ref, ipiv); err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < p; rank++ {
			for j := range ipiv {
				if pivots[rank][j] != ipiv[j] {
					t.Fatalf("p=%d rank=%d: pivots %v want %v", p, rank, pivots[rank], ipiv)
				}
			}
		}
		// The factored panel (written back in position space) must match
		// the sequential in-place factor.
		if !panel.EqualApprox(ref, 1e-12) {
			t.Fatalf("p=%d: distributed factor differs from GETF2", p)
		}
	}
}

func TestDistTSQRMatchesSharedMemory(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		m, b := 160, 10
		panel := matrix.Random(m, b, int64(p*7))
		w := NewWorld(p)
		rs := TSQR(w, panel.Clone(), p)

		ref := tsqrReferenceR(panel, p)
		for rank := 0; rank < p; rank++ {
			r := rs[rank]
			if r.Rows != b || r.Cols != b {
				t.Fatalf("p=%d: R is %dx%d", p, r.Rows, r.Cols)
			}
			for i := 0; i < b; i++ {
				d1, d2 := math.Abs(r.At(i, i)), math.Abs(ref.At(i, i))
				if math.Abs(d1-d2) > 1e-10*(1+d2) {
					t.Fatalf("p=%d rank=%d: |R| diag %d differs: %v vs %v", p, rank, i, d1, d2)
				}
			}
		}
	}
}

func tsqrReferenceR(panel *matrix.Dense, p int) *matrix.Dense {
	work := panel.Clone()
	tau := make([]float64, work.Cols)
	lapack.GEQR2(work, tau)
	return lapack.ExtractR(work).View(0, 0, work.Cols, work.Cols).Clone()
}

// TestMessageCountsTSLUvsGEPP is the paper's Section II claim in numbers:
// ca-pivoting needs O(log P) messages per process where partial pivoting
// needs O(b log P).
func TestMessageCountsTSLUvsGEPP(t *testing.T) {
	m, b, p := 256, 16, 8
	logP := 3

	wCA := NewWorld(p)
	TSLU(wCA, matrix.Random(m, b, 1), p)
	caMax := wCA.MaxMessagesPerRank()
	// Tournament: <= log2(P) candidate sends + log2(P) broadcast forwards.
	if caMax > int64(2*logP) {
		t.Errorf("TSLU max messages per rank %d > 2 log2(P) = %d", caMax, 2*logP)
	}

	wPP := NewWorld(p)
	GEPP(wPP, matrix.Random(m, b, 1), p)
	ppMax := wPP.MaxMessagesPerRank()
	// Partial pivoting pays per-column reductions and broadcasts: at least
	// b messages from the busiest process (in practice ~2b log P overall).
	if ppMax < int64(b) {
		t.Errorf("GEPP max messages per rank %d suspiciously low", ppMax)
	}
	if ppMax < 4*caMax {
		t.Errorf("GEPP (%d msgs) not clearly above TSLU (%d msgs)", ppMax, caMax)
	}
	t.Logf("messages per process: TSLU %d vs GEPP %d (b=%d, P=%d)", caMax, ppMax, b, p)
}

// TestTSQRMessageVolume: the reduction moves one R factor per tree edge.
func TestTSQRMessageVolume(t *testing.T) {
	m, b, p := 320, 10, 8
	w := NewWorld(p)
	TSQR(w, matrix.Random(m, b, 3), p)
	// Tree sends: p-1 R-factors; broadcast: p-1 messages.
	maxPerRank := w.MaxMessagesPerRank()
	if maxPerRank > 2*3 { // log2(8) sends + forwards
		t.Errorf("TSQR max messages per rank %d", maxPerRank)
	}
}

func TestIdleRanksStayConsistent(t *testing.T) {
	// World larger than the useful parallelism: extra ranks must still get
	// the broadcast results.
	m, b, p := 64, 8, 6
	w := NewWorld(p)
	winners := TSLU(w, matrix.Random(m, b, 9), p)
	for rank := 1; rank < p; rank++ {
		for i := range winners[0] {
			if winners[rank][i] != winners[0][i] {
				t.Fatalf("rank %d winners diverge", rank)
			}
		}
	}
}

func TestDistTSLUTreeShapes(t *testing.T) {
	m, b := 128, 8
	for _, tree := range []tslu.Tree{tslu.Binary, tslu.Flat, tslu.Hybrid} {
		for _, p := range []int{2, 4, 6, 8} {
			panel := matrix.Random(m, b, int64(p*10+int(tree)))
			w := NewWorld(p)
			winners := TSLUTree(w, panel, p, tree)

			blocks := tslu.Partition(m, p)
			leaves := make([]*tslu.Candidates, len(blocks))
			for i, blk := range blocks {
				leaves[i] = tslu.Leaf(panel.View(blk[0], 0, blk[1]-blk[0], b), blk[0])
			}
			want := tslu.Reduce(leaves, tree).Idx
			for rank := 0; rank < p; rank++ {
				for i := range want {
					if winners[rank][i] != want[i] {
						t.Fatalf("tree=%v p=%d rank=%d: winners %v want %v",
							tree, p, rank, winners[rank], want)
					}
				}
			}
		}
	}
}

func TestDistFlatTreeMessagePattern(t *testing.T) {
	// Flat tree: every non-root rank sends its candidates once to rank 0
	// (1 tournament message each), plus broadcast forwards.
	m, b, p := 256, 16, 8
	w := NewWorld(p)
	TSLUTree(w, matrix.Random(m, b, 1), p, tslu.Flat)
	// Rank p-1 sends exactly one tournament message and possibly zero
	// broadcast forwards (it is a leaf of the binomial tree).
	if got := w.MessagesSent(p - 1); got != 1 {
		t.Fatalf("flat: last rank sent %d messages, want 1", got)
	}
	// Root sends only broadcast messages (log2(P) of them at most).
	if got := w.MessagesSent(0); got > 3 {
		t.Fatalf("flat: root sent %d messages", got)
	}
}

// distCALUResidual runs the full distributed CALU and returns the
// ||P*A - L*U|| / ||A|| residual of the gathered result.
func distCALUResidual(t *testing.T, m, n, b, p int, seed int64) float64 {
	t.Helper()
	orig := matrix.Random(m, n, seed)
	a := orig.Clone()
	w := NewWorld(p)
	ipiv := CALU(w, a, b)

	l, u := lapack.ExtractLU(a)
	prod := mulDense(l, u)
	pa := orig.Clone()
	lapack.LASWP(pa, ipiv, 0, len(ipiv))
	diff := 0.0
	for j := 0; j < n; j++ {
		x, y := pa.Col(j), prod.Col(j)
		for i := range x {
			d := x[i] - y[i]
			diff += d * d
		}
	}
	return math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300)
}

func mulDense(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		for p := 0; p < a.Cols; p++ {
			bv := b.At(p, j)
			if bv == 0 {
				continue
			}
			src := a.Col(p)
			dst := c.Col(j)
			for i := range src {
				dst[i] += src[i] * bv
			}
		}
	}
	return c
}

func TestDistCALUFactors(t *testing.T) {
	for _, tc := range []struct{ m, n, b, p int }{
		{64, 64, 8, 1},
		{64, 64, 8, 2},
		{128, 64, 8, 4},
		{128, 128, 16, 8},
		{96, 48, 8, 3},
		{80, 80, 16, 7}, // more ranks than useful: some idle
	} {
		if res := distCALUResidual(t, tc.m, tc.n, tc.b, tc.p, int64(tc.m+tc.p)); res > 1e-11*float64(tc.m) {
			t.Errorf("%+v: residual %g", tc, res)
		}
	}
}

func TestDistCALUSolvesSystem(t *testing.T) {
	n, b, p := 96, 16, 4
	orig := matrix.Random(n, n, 71)
	xWant := matrix.Random(n, 1, 72)
	rhs := mulDense(orig, xWant)

	a := orig.Clone()
	w := NewWorld(p)
	ipiv := CALU(w, a, b)
	lapack.LUSolve(a, ipiv, rhs)
	if !rhs.EqualApprox(xWant, 1e-8) {
		t.Fatal("distributed CALU solve wrong")
	}
}

func TestDistCALUMessageScaling(t *testing.T) {
	// Per panel, the busiest process sends O(log P) tournament messages,
	// a few swap rows and broadcast forwards — far below the O(b log P) a
	// distributed partial-pivoting panel costs (TestMessageCountsTSLUvsGEPP).
	m, n, b, p := 256, 64, 16, 8
	w := NewWorld(p)
	CALU(w, matrix.Random(m, n, 3), b)
	panels := n / b
	perPanel := float64(w.MaxMessagesPerRank()) / float64(panels)
	if perPanel > 24 { // log2(8)=3 tournament + <=16 swaps + forwards
		t.Fatalf("max messages per rank per panel = %.1f", perPanel)
	}
	t.Logf("distributed CALU: %.1f messages per rank per panel (P=%d, b=%d)", perPanel, p, b)
}

func TestDistCAQRGram(t *testing.T) {
	// R from distributed CAQR must satisfy R^T R == A^T A, and its
	// diagonal magnitudes must match a sequential Householder QR.
	for _, tc := range []struct{ m, n, b, p int }{
		{64, 64, 8, 1},
		{64, 64, 8, 2},
		{128, 64, 16, 4},
		{128, 32, 16, 8},
		{96, 96, 16, 3},
	} {
		orig := matrix.Random(tc.m, tc.n, int64(tc.m*3+tc.p))
		a := orig.Clone()
		w := NewWorld(tc.p)
		CAQR(w, a, tc.b)

		r := matrix.New(tc.n, tc.n)
		for j := 0; j < tc.n; j++ {
			for i := 0; i <= j; i++ {
				r.Set(i, j, a.At(i, j))
			}
		}
		ata := mulDense(orig.Transpose(), orig)
		rtr := mulDense(r.Transpose(), r)
		if !ata.EqualApprox(rtr, 1e-9*float64(tc.m)) {
			t.Errorf("%+v: R^T R != A^T A", tc)
			continue
		}
		// Diagonal magnitudes vs sequential QR.
		seq := orig.Clone()
		tau := make([]float64, tc.n)
		lapack.GEQRF(seq, tau, tc.b)
		for i := 0; i < tc.n; i++ {
			d1, d2 := math.Abs(r.At(i, i)), math.Abs(seq.At(i, i))
			if math.Abs(d1-d2) > 1e-9*(1+d2) {
				t.Errorf("%+v: |R(%d,%d)| = %v want %v", tc, i, i, d1, d2)
				break
			}
		}
	}
}

func TestDistCAQRMessageScaling(t *testing.T) {
	// Per panel: log2(P) tree edges, each shipping one R triangle and one
	// w x n_trail carrier block (plus its return).
	m, n, b, p := 256, 64, 16, 8
	w := NewWorld(p)
	CAQR(w, matrix.Random(m, n, 5), b)
	panels := n / b
	perPanel := float64(w.MaxMessagesPerRank()) / float64(panels)
	if perPanel > 3*3+1 { // <= 3 tree edges x (R + C2 + back)
		t.Fatalf("max messages per rank per panel = %.1f", perPanel)
	}
	t.Logf("distributed CAQR: %.1f messages per rank per panel (P=%d, b=%d)", perPanel, p, b)
}

func TestDistCAQRRejectsMisaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m not divisible by b")
		}
	}()
	CAQR(NewWorld(2), matrix.Random(30, 8, 1), 8)
}
