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

	fmt.Println("measuring kernel rates (a few seconds)...")

	blas3 := rateGemm(384)
	recStream := rateRGETF2(200000, 64)
	recCache := rateRGETF2(2000, 64)
	blas2Stream := rateGETF2(200000, 64)
	blas2Cache := rateGETF2(2000, 64)
	overhead := schedOverhead()

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
	type setting struct {
		mc, nc int
		rates  []float64 // sorted after the last round
	}
	// The defaults come first. NC values are multiples of the 12-column
	// register tile.
	var grid []*setting
	for _, nc := range distinctBlocks(n, nc0, 1020, 2040, 4092) {
		for _, mc := range distinctBlocks(n, mc0, 64, 96, 128, 192, 256) {
			grid = append(grid, &setting{mc: mc, nc: nc})
		}
	}
	a, b, c := matrix.Random(n, n, 1), matrix.Random(n, n, 2), matrix.New(n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	fmt.Printf("tuning packed Dgemm blocks at n=%d, KC=%d (kernel %s): median of %d interleaved rounds...\n",
		n, kc, blas.KernelName(), tuneRounds)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c) // warm-up
	for r := 0; r < tuneRounds; r++ {
		for _, s := range grid {
			if err := blas.SetBlockSizes(s.mc, kc, s.nc); err != nil {
				panic(err)
			}
			start := time.Now()
			blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
			s.rates = append(s.rates, flops/time.Since(start).Seconds()/1e9)
		}
	}
	med := func(s *setting) float64 { return s.rates[len(s.rates)/2] }
	def, best := grid[0], grid[0]
	for _, s := range grid {
		slices.Sort(s.rates)
		fmt.Printf("  MC=%-4d NC=%-5d %7.2f GFlop/s\n", s.mc, s.nc, med(s))
		if med(s) > med(best) {
			best = s
		}
	}
	q1, q3 := def.rates[tuneRounds/4], def.rates[tuneRounds-1-tuneRounds/4]
	fmt.Printf("\ndefault: MC=%d NC=%d at %.2f GFlop/s (quartiles %.2f-%.2f)\n", def.mc, def.nc, med(def), q1, q3)
	fmt.Printf("best:    MC=%d NC=%d at %.2f GFlop/s\n", best.mc, best.nc, med(best))
	if med(best)-med(def) <= q3-q1 {
		fmt.Println("the best is within the default's spread: keep the defaults")
		return
	}
	fmt.Printf("apply with:\n\n\tblas.SetBlockSizes(%d, %d, %d)\n", best.mc, kc, best.nc)
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

// rateGemm returns achieved flops/s of the blocked Dgemm at size n^3.
func rateGemm(n int) float64 {
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	c := matrix.New(n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	// Warm up once, then time the best of three.
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
		if r := flops / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

func rateRGETF2(m, n int) float64 {
	orig := matrix.Random(m, n, 3)
	flops := baseline.LUFlops(m, n)
	best := 0.0
	for i := 0; i < 3; i++ {
		a := orig.Clone()
		ipiv := make([]int, n)
		start := time.Now()
		if err := lapack.RGETF2(a, ipiv); err != nil {
			panic(err)
		}
		if r := flops / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

func rateGETF2(m, n int) float64 {
	orig := matrix.Random(m, n, 4)
	flops := baseline.LUFlops(m, n)
	best := 0.0
	for i := 0; i < 3; i++ {
		a := orig.Clone()
		ipiv := make([]int, n)
		start := time.Now()
		if err := lapack.GETF2(a, ipiv); err != nil {
			panic(err)
		}
		if r := flops / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	return best
}

// schedOverhead times the dynamic scheduler on a graph of empty tasks.
func schedOverhead() float64 {
	const n = 20000
	g := sched.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(&sched.Task{Run: func() {}})
	}
	pool := sched.NewPool(runtime.NumCPU())
	defer pool.Close()
	start := time.Now()
	sub, err := pool.Submit(g, sched.SubmitOptions{})
	if err == nil {
		_, err = sub.Wait()
	}
	if err != nil {
		panic(err)
	}
	return time.Since(start).Seconds() / n
}
