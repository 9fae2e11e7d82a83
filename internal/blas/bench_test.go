package blas

import (
	"testing"

	"repro/internal/matrix"
)

// Kernel micro-benchmarks: these are the rates the machine models
// abstract, so having them next to the kernels keeps the calibration
// honest (see also cmd/calibrate).

func benchGemm(b *testing.B, m, n, k int) {
	b.Helper()
	x := matrix.Random(m, k, 1)
	y := matrix.Random(k, n, 2)
	c := matrix.New(m, n)
	flops := 2 * float64(m) * float64(n) * float64(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(NoTrans, NoTrans, 1, x, y, 0, c)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDgemmSquare256(b *testing.B)  { benchGemm(b, 256, 256, 256) }
func BenchmarkDgemmSquare512(b *testing.B)  { benchGemm(b, 512, 512, 512) }
func BenchmarkDgemmTallUpdate(b *testing.B) { benchGemm(b, 4096, 100, 100) }
func BenchmarkDgemmWideK(b *testing.B)      { benchGemm(b, 128, 128, 2048) }

// BenchmarkDgemmSTask is the square S(LU) task at Tr = 4: a 231-row block
// of L times a 100-column block of U, whose n = 100 ends in a 4-column
// fringe tile.
func BenchmarkDgemmSTask(b *testing.B) { benchGemm(b, 231, 100, 100) }

// BenchmarkGemmPackedSTask is the same S task on operands packed outside
// the timer, as CALU's L and U tasks pack them: the difference from
// BenchmarkDgemmSTask is the packing each S task no longer does.
func BenchmarkGemmPackedSTask(b *testing.B) {
	const m, n, k = 231, 100, 100
	var pa PackedA
	var pb PackedB
	pa.Pack(1, matrix.Random(m, k, 1), n, 1)
	pb.Pack(matrix.Random(k, n, 2), m, 1)
	c := matrix.New(m, n)
	flops := 2 * float64(m) * float64(n) * float64(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmPacked(&pa, &pb, c)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDtrsmRightUpper(b *testing.B) {
	// The CALU task-L kernel shape: tall block against a b x b triangle.
	tri := matrix.Random(100, 100, 3)
	for i := 0; i < 100; i++ {
		tri.Set(i, i, tri.At(i, i)+4)
	}
	rhs := matrix.Random(4096, 100, 4)
	flops := float64(4096) * 100 * 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := rhs.Clone()
		b.StartTimer()
		Trsm(Right, Upper, NoTrans, NonUnit, 1, tri, work)
		b.StopTimer()
		_ = work
		b.StartTimer()
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkDtrsmLeftUnit times the unit-lower left solves of the LU
// factorizations: a CALU U task's L11 \ A_KJ, 100x100 inside a 1024-row
// matrix, and the U12 solves of RGETF2 on a 100-wide panel (48x52 and
// 24x24 in a 256-row tournament leaf, down to the 8x8 of its base). L's
// off-diagonal entries are at most 1/(8m) in magnitude, so a solve scales
// B by at most 8/7 and B, restored every 16 solves outside the timed
// region, stays far from overflow and subnormals.
func BenchmarkDtrsmLeftUnit(b *testing.B) {
	const restoreEvery = 16
	for _, s := range []struct {
		name    string
		m, n, l int // triangle order, right-hand sides, leading dimension
	}{
		{"u-task-100x100", 100, 100, 1024},
		{"rgetf2-48x52", 48, 52, 256},
		{"rgetf2-24x24", 24, 24, 256},
		{"rgetf2-8x8", 8, 8, 256},
	} {
		b.Run(s.name, func(b *testing.B) {
			a := matrix.Random(s.l, s.m, 11).Data
			for i := range a {
				a[i] /= float64(8 * s.m)
			}
			rhs := matrix.Random(s.l, s.n, 12).Data
			work := make([]float64, len(rhs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%restoreEvery == 0 {
					b.StopTimer()
					copy(work, rhs)
					b.StartTimer()
				}
				Dtrsm(Left, Lower, NoTrans, Unit, s.m, s.n, 1, a, s.l, work, s.l)
			}
			b.ReportMetric(float64(s.m*s.m*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
		})
	}
}

func BenchmarkDgemv(b *testing.B) {
	a := matrix.Random(2048, 2048, 5)
	x := matrix.Random(2048, 1, 6).Col(0)
	y := make([]float64, 2048)
	flops := 2 * float64(2048) * 2048
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemv(NoTrans, 2048, 2048, 1, a.Data, a.Stride, x, 1, 0, y, 1)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkDger(b *testing.B) {
	a := matrix.New(2048, 512)
	x := matrix.Random(2048, 1, 7).Col(0)
	y := matrix.Random(512, 1, 8).Col(0)
	flops := 2 * float64(2048) * 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dger(2048, 512, 1.0001, x, 1, y, 1, a.Data, a.Stride)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkDamax scans a 10^4 x 200 matrix column by column, the input
// check on the paper's tall shape (16 MB, past L2), on the Go loop and,
// where the host has it, on the assembly.
func BenchmarkDamax(b *testing.B) {
	a := matrix.Random(10000, 200, 9)
	scan := func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			for j := 0; j < a.Cols; j++ {
				sink += Damax(a.Col(j))
			}
		}
		b.ReportMetric(8*float64(len(a.Data))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		if sink < 0 {
			b.Fatal("negative max")
		}
	}
	b.Run("generic", func(b *testing.B) {
		defer ForceTile("generic")()
		scan(b)
	})
	if tiles := Tiles(); len(tiles) > 1 {
		b.Run("asm", func(b *testing.B) {
			defer ForceTile(tiles[len(tiles)-1])()
			scan(b)
		})
	}
}

// BenchmarkPack packs one cache block of the BLAS3 calls that dominate the
// factorizations, on the Go loops and, where the host has them, on the
// assembly strip kernels, and reports GB/s of elements packed (8 bytes
// each). The A blocks are a NoTrans 128 x 100 block at lda 1024 and a
// transposed 100 x 256 one at lda 2500; the B blocks are NoTrans 256 x 96
// at ldb 2500 and 100 x 96 at ldb 1024.
func BenchmarkPack(b *testing.B) {
	shapes := []struct {
		name       string
		a          bool // an A block (else B)
		trans      Transpose
		rows, cols int // of op(A) or op(B)
		ld         int
	}{
		{"A-NoTrans-128x100", true, NoTrans, 128, 100, 1024},
		{"A-Trans-100x256", true, Trans, 100, 256, 2500},
		{"B-NoTrans-256x96", false, NoTrans, 256, 96, 2500},
		{"B-NoTrans-100x96", false, NoTrans, 100, 96, 1024},
	}
	tiles := Tiles()
	for _, s := range shapes {
		srcCols := s.cols // a Trans source holds op's rows as its columns
		if s.trans == Trans {
			srcCols = s.rows
		}
		src := matrix.Random(s.ld, srcCols, 10).Data
		buf := make([]float64, ceilMul(s.rows, gemmMR)*ceilMul(s.cols, gemmNR))
		pack := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s.a {
					packA(s.trans, s.rows, s.cols, 0.7, src, s.ld, buf)
				} else {
					packB(s.trans, s.rows, s.cols, src, s.ld, buf)
				}
			}
			b.ReportMetric(8*float64(s.rows*s.cols)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		}
		b.Run(s.name+"/generic", func(b *testing.B) {
			defer ForceTile("generic")()
			pack(b)
		})
		if len(tiles) > 1 {
			b.Run(s.name+"/asm", func(b *testing.B) {
				defer ForceTile(tiles[len(tiles)-1])()
				pack(b)
			})
		}
	}
}
