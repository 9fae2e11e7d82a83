package lapack

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
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

// Update-task benchmarks: one CAQR S task of the square QR workload (768²,
// b = 100, Tr = 4), Larfb applying Qᵀ of a panel block to the matching
// rows of a 100-column block of the trailing matrix. The rate uses core's
// S-task flop count 4·m·k·n for an m x k V and n columns.

// squareLeafRows is the height of a first-panel leaf on the square
// workload: 768 rows over Tr = 4.
const squareLeafRows = 192

// benchLarfb times Larfb(Trans, v, t, c) on a seeded n-column C. Qᵀ is
// orthogonal, so applying it over and over keeps C's scale.
func benchLarfb(b *testing.B, v, t *matrix.Dense, n int) {
	b.Helper()
	c := matrix.Random(v.Rows, n, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Larfb(blas.Trans, v, t, c)
	}
	flops := 4 * float64(v.Rows) * float64(v.Cols) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkLarfbLeaf is a leaf S task: V from GEQR3 on a 192 x 100 leaf.
func BenchmarkLarfbLeaf(b *testing.B) {
	v := matrix.Random(squareLeafRows, leafCols, 13)
	t := matrix.New(leafCols, leafCols)
	GEQR3(v, make([]float64, leafCols), t)
	benchLarfb(b, v, t, leafCols)
}

// BenchmarkLarfbNode is a tree S task: V from the dense QR of two stacked
// 100 x 100 upper triangles, as a two-carrier TSQR merge factors them.
func BenchmarkLarfbNode(b *testing.B) {
	v := matrix.Random(2*leafCols, leafCols, 14)
	for j := 0; j < leafCols; j++ {
		col := v.Col(j)
		for i := range col {
			if i%leafCols > j {
				col[i] = 0
			}
		}
	}
	t := matrix.New(leafCols, leafCols)
	GEQR3(v, make([]float64, leafCols), t)
	benchLarfb(b, v, t, leafCols)
}

// BenchmarkLASWP times the interchange loop at the shapes square LU 1024²
// (b = 100) runs it on. A U task applies a panel's 100 ipiv entries, here
// those of the panel at row 500, to a 1024 x 100 block column, and GECON
// undoes such a segment with LASWPBackward. That block stays in L2 from
// one call to the next. The cold row applies the same segment to block
// column i mod 10 of a 1024 x 1024 matrix (8 MB) in call i, as square LU
// 1024²'s U tasks meet their columns: each call touches about 0.4 MB of
// lines, so the nine calls between two visits to a block move more data
// through a core than its L2 holds. The left-swap task of block column 0
// applies every later panel's entries, ipiv[100:1024), to its 1024 x 100
// block. The wide row applies the U task's segment to a 1024 x 900 block.
// The entries are random rows at or below their own, like a tournament's.
// The rate counts the 16 bytes each swap exchanges per column.
func BenchmarkLASWP(b *testing.B) {
	const m = 1024
	rng := rand.New(rand.NewSource(13))
	ipiv := make([]int, m)
	for i := range ipiv {
		ipiv[i] = i + rng.Intn(m-i)
	}
	for _, tc := range []struct {
		name string
		// cols is the width of one call's block; the matrix is width
		// columns wide, and call i takes its block i mod width/cols.
		cols, width int
		k1, k2      int
		interchange func(a *matrix.Dense, ipiv []int, k1, k2 int)
	}{
		{"U-task-1024x100", 100, 100, 500, 600, LASWP},
		{"U-task-cold-1024x100", 100, m, 500, 600, LASWP},
		{"U-task-backward-1024x100", 100, 100, 500, 600, LASWPBackward},
		{"left-swap-j0-1024x100", 100, 100, 100, m, LASWP},
		{"wide-1024x900", 900, 900, 500, 600, LASWP},
	} {
		b.Run(tc.name, func(b *testing.B) {
			a := matrix.Random(m, tc.width, 14)
			blocks := make([]*matrix.Dense, tc.width/tc.cols)
			for k := range blocks {
				blocks[k] = a.View(0, k*tc.cols, m, tc.cols)
			}
			b.SetBytes(int64(16 * (tc.k2 - tc.k1) * tc.cols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.interchange(blocks[i%len(blocks)], ipiv, tc.k1, tc.k2)
			}
		})
	}
}
