package lapack

import (
	"testing"

	"repro/internal/matrix"
)

// Panel-leaf benchmarks: the kernels that run inside the TSQR/TSLU leaves
// of the tall benchmark workload (10^4 x 200, b = 100, Tr = 4, so each leaf
// is 2500 x 100) and their width-8 recursion bases. Every iteration
// factors a fresh copy of the same input; the copy is not timed. The
// reported rate uses the canonical LAPACK flop counts (mn^2 - n^3/3 for
// LU, 2mn^2 - 2n^3/3 for QR), so the recursive kernels' extra T-factor
// work is not credited.

const (
	leafRows = 2500
	leafCols = 100
	baseCols = panelBase
)

// benchPanel times factor on fresh copies of a seeded m x n input.
func benchPanel(b *testing.B, m, n int, flops float64, factor func(a *matrix.Dense)) {
	b.Helper()
	orig := matrix.Random(m, n, 11)
	work := matrix.New(m, n)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work.CopyFrom(orig)
		b.StartTimer()
		factor(work)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func luFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return fm*fn*fn - fn*fn*fn/3
}

func qrFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2*fm*fn*fn - 2*fn*fn*fn/3
}

func BenchmarkGEQR3Leaf(b *testing.B) {
	tau := make([]float64, leafCols)
	t := matrix.New(leafCols, leafCols)
	benchPanel(b, leafRows, leafCols, qrFlops(leafRows, leafCols), func(a *matrix.Dense) { GEQR3(a, tau, t) })
}

func BenchmarkRGETF2Leaf(b *testing.B) {
	ipiv := make([]int, leafCols)
	benchPanel(b, leafRows, leafCols, luFlops(leafRows, leafCols), func(a *matrix.Dense) { _ = RGETF2(a, ipiv) })
}

func BenchmarkGEQR2Base(b *testing.B) {
	tau := make([]float64, baseCols)
	benchPanel(b, leafRows, baseCols, qrFlops(leafRows, baseCols), func(a *matrix.Dense) { GEQR2(a, tau) })
}

func BenchmarkGETF2Base(b *testing.B) {
	ipiv := make([]int, baseCols)
	benchPanel(b, leafRows, baseCols, luFlops(leafRows, baseCols), func(a *matrix.Dense) { _ = GETF2(a, ipiv) })
}
