// Tuning: find the best (b, Tr, tree) for CALU on *this* machine and
// matrix shape — the exercise Section IV of the paper performs on its two
// testbeds ("the optimal choice of parameters b and Tr depends on the size
// of the input matrix and on the architecture").
//
// The sweep times real factorizations at a reduced size, prints the grid,
// and reports the winner. On a multicore host, run with different
// GOMAXPROCS to watch the optimum shift toward larger Tr.
//
//	go run ./examples/tuning [-m rows] [-n cols]
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"repro/factor"
)

func main() {
	m := flag.Int("m", 6000, "rows")
	n := flag.Int("n", 300, "columns")
	flag.Parse()

	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("tuning CALU on %dx%d with %d workers\n\n", *m, *n, workers)

	orig := factor.Random(*m, *n, 99)
	flops := float64(*m)*float64(*n)*float64(*n) - float64(*n)*float64(*n)*float64(*n)/3

	type result struct {
		b, tr int
		tree  string
		gf    float64
	}
	var best result

	trees := []struct {
		tree factor.Tree
		name string
	}{{factor.Binary, "binary"}, {factor.Flat, "flat"}, {factor.Hybrid, "hybrid"}}
	fmt.Printf("%-8s %-4s %-8s %10s\n", "tree", "Tr", "b", "GFlop/s")
	for _, t := range trees {
		for _, tr := range []int{1, 2, 4, 8} {
			if tr > 1 && t.tree == factor.Binary && tr > 2*workers {
				continue
			}
			for _, b := range []int{50, 100, 200} {
				if b > *n {
					continue
				}
				a := orig.Clone()
				opt := factor.Options{BlockSize: b, PanelThreads: tr, Tree: t.tree, Workers: workers}
				start := time.Now()
				if _, err := factor.LU(a, opt); err != nil {
					panic(err)
				}
				gf := flops / time.Since(start).Seconds() / 1e9
				fmt.Printf("%-8s %-4d %-8d %10.2f\n", t.name, tr, b, gf)
				if gf > best.gf {
					best = result{b: b, tr: tr, tree: t.name, gf: gf}
				}
			}
		}
	}
	fmt.Printf("\nbest: tree=%s Tr=%d b=%d at %.2f GFlop/s\n",
		best.tree, best.tr, best.b, best.gf)
	fmt.Println("\nExpected pattern (paper Section IV): on a tall-skinny shape the")
	fmt.Println("optimum sits at Tr = cores; on squares, Tr = 2-4 with larger b.")
}
