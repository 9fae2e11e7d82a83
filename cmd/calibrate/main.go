// Command calibrate measures the host's actual kernel rates and scheduling
// overhead, and prints a machine.Model literal for it. Useful when you want
// the virtual-time experiments (cabench's modeled mode) to predict *this*
// machine instead of the paper's 2009 testbeds.
//
//	go run ./cmd/calibrate
//	go run ./cmd/calibrate -tune          # grid-search MC/NC for this host
//	go run ./cmd/calibrate -tune -n 768   # tune at a different problem size
//
// -tune sweeps the packed Dgemm's MC and NC cache blocks at the default KC
// (see doc/KERNELS.md) and prints the fastest pair next to the defaults:
// the blas.SetBlockSizes call that applies it, or "keep the defaults" when
// its lead is within the defaults' own run-to-run spread.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func main() {
	tune := flag.Bool("tune", false, "grid-search packed-Dgemm block sizes (MC/NC at the default KC) and exit")
	tuneN := flag.Int("n", 512, "with -tune: square problem size to tune at")
	flag.Parse()

	if *tune {
		tuneBlocks(*tuneN)
		return
	}

	fmt.Printf("measuring kernel rates, median of %d windows each (a few seconds)...\n", calWindows)

	const gn = 384
	ga, gb, gc := matrix.Random(gn, gn, 1), matrix.Random(gn, gn, 2), matrix.New(gn, gn)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, ga, gb, 0, gc) // warm-up
	blas3 := 2 * gn * gn * gn / seconds(nil, func() { blas.Gemm(blas.NoTrans, blas.NoTrans, 1, ga, gb, 0, gc) })
	// lu is the rate of an unblocked panel LU of a fresh copy of an m x 64
	// input: tall inputs stream from memory, short ones stay in cache.
	lu := func(f func(*matrix.Dense, []int) error, m int, seed int64) float64 {
		const n = 64
		orig := matrix.Random(m, n, seed)
		var a *matrix.Dense
		var ipiv []int
		return baseline.LUFlops(m, n) / seconds(func() { a, ipiv = orig.Clone(), make([]int, n) }, func() {
			if err := f(a, ipiv); err != nil {
				panic(err)
			}
		})
	}
	recStream := lu(lapack.RGETF2, 200000, 3)
	recCache := lu(lapack.RGETF2, 2000, 3)
	blas2Stream := lu(lapack.GETF2, 200000, 4)
	blas2Cache := lu(lapack.GETF2, 2000, 4)
	// The scheduler's overhead per task, on a graph of empty tasks.
	const tasks = 20000
	pool := sched.NewPool(runtime.NumCPU())
	defer pool.Close()
	var g *sched.Graph
	overhead := seconds(func() {
		g = sched.NewGraph()
		for i := 0; i < tasks; i++ {
			g.Add(&sched.Task{Run: func() {}})
		}
	}, func() {
		sub, err := pool.Submit(g, sched.SubmitOptions{})
		if err == nil {
			_, err = sub.Wait()
		}
		if err != nil {
			panic(err)
		}
	}) / tasks

	fmt.Println()
	fmt.Printf("dgemm (384^3):                 %8.2f GFlop/s\n", blas3/1e9)
	fmt.Printf("rgetf2 200000x64 (streaming):  %8.2f GFlop/s\n", recStream/1e9)
	fmt.Printf("rgetf2 2000x64 (cache):        %8.2f GFlop/s\n", recCache/1e9)
	fmt.Printf("dgetf2 200000x64 (streaming):  %8.2f GFlop/s\n", blas2Stream/1e9)
	fmt.Printf("dgetf2 2000x64 (cache):        %8.2f GFlop/s\n", blas2Cache/1e9)
	fmt.Printf("scheduler overhead:            %8.2f us/task\n", overhead*1e6)

	fmt.Println("\nmachine.Model literal for this host:")
	fmt.Printf(`
	&machine.Model{
		Name:             %q,
		Cores:            %d,
		RateBLAS3:        %.3g,
		RateRecursive:    %.3g,
		RateBLAS2:        %.3g,
		RateSmall:        %.3g,
		MemPorts:         2,
		TaskOverhead:     %.3g,
		GranularityFlops: 1e6,
		CacheRows:        4000,
		CacheRecursive:   %.3g,
		CacheBLAS2:       %.3g,
	}
`, "host: "+runtime.GOARCH, runtime.NumCPU(),
		blas3, recStream, blas2Stream, blas2Stream*2,
		overhead, recCache, blas2Cache)
}

// tuneRounds is how many rounds -tune times the grid in. A round runs one
// Dgemm per setting, so a shared host's drift lands on every setting alike;
// a setting's rate is the median of its rounds.
const tuneRounds = 21

// tuneBlocks grid-searches the packed Dgemm's cache blocks at n^3 and
// prints the winner next to the defaults. The grid brackets the L2/L3-sized
// defaults: MC rows of packed A (MC*KC*8 bytes should sit in L2) and NC
// columns of packed B (KC*NC*8 in L3). KC stays at its default: it fixes
// the order in which each element of C is summed, so changing it would
// change factor bits (doc/KERNELS.md).
func tuneBlocks(n int) {
	mc0, kc, nc0 := blas.BlockSizes()
	defer func() {
		if err := blas.SetBlockSizes(mc0, kc, nc0); err != nil {
			panic(err)
		}
	}()
	// The defaults come first. NC values are multiples of the 12-column
	// register tile.
	type setting struct{ mc, nc int }
	var grid []setting
	for _, nc := range distinctBlocks(n, nc0, 1020, 2040, 4092) {
		for _, mc := range distinctBlocks(n, mc0, 64, 96, 128, 192, 256) {
			grid = append(grid, setting{mc, nc})
		}
	}
	a, b, c := matrix.Random(n, n, 1), matrix.Random(n, n, 2), matrix.New(n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	sides := make([]func() float64, len(grid))
	for i, s := range grid {
		sides[i] = func() float64 {
			if err := blas.SetBlockSizes(s.mc, kc, s.nc); err != nil {
				panic(err)
			}
			start := time.Now()
			blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
			return flops / time.Since(start).Seconds() / 1e9
		}
	}
	fmt.Printf("tuning packed Dgemm blocks at n=%d, KC=%d (kernel %s): median of %d interleaved rounds...\n",
		n, kc, blas.KernelName(), tuneRounds)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c) // warm-up
	rates := bench.Interleave(tuneRounds, sides...)
	best := 0
	for i, s := range grid {
		fmt.Printf("  MC=%-4d NC=%-5d %7.2f GFlop/s\n", s.mc, s.nc, rates[i].Median)
		if rates[i].Median > rates[best].Median {
			best = i
		}
	}
	def := rates[0]
	fmt.Printf("\ndefault: MC=%d NC=%d at %.2f GFlop/s (quartiles %.2f-%.2f)\n", grid[0].mc, grid[0].nc, def.Median, def.Q1, def.Q3)
	fmt.Printf("best:    MC=%d NC=%d at %.2f GFlop/s\n", grid[best].mc, grid[best].nc, rates[best].Median)
	if rates[best].Median-def.Median <= def.Q3-def.Q1 {
		fmt.Println("the best is within the default's spread: keep the defaults")
		return
	}
	fmt.Printf("apply with:\n\n\tblas.SetBlockSizes(%d, %d, %d)\n", grid[best].mc, kc, grid[best].nc)
}

// distinctBlocks returns def and the values of grid that run a blocking of
// their own at size n. Dgemm clamps a block of n or more to the problem,
// so those all run alike; the first of them stands for the rest (def, when
// it is one).
func distinctBlocks(n, def int, grid ...int) []int {
	vals := []int{def}
	for _, v := range grid {
		if !slices.ContainsFunc(vals, func(u int) bool { return min(u, n) == min(v, n) }) {
			vals = append(vals, v)
		}
	}
	return vals
}

// calWindows is how many windows each rate is the median of.
const calWindows = 3

// seconds returns the median over calWindows windows, run through
// bench.Interleave, of the seconds one call of run takes. setup, when not
// nil, prepares each window's input outside the timed region.
func seconds(setup, run func()) float64 {
	return bench.Interleave(calWindows, func() float64 {
		if setup != nil {
			setup()
		}
		start := time.Now()
		run()
		return time.Since(start).Seconds()
	})[0].Median
}
