// Command cabench regenerates the paper's tables and figures.
//
// Usage:
//
//	cabench -list
//	cabench -exp fig5                  # one experiment, modeled at paper scale
//	cabench -exp all                   # everything
//	cabench -exp table1 -measured     # real execution at reduced scale
//	cabench -exp fig8 -workers 8 -v
//	cabench -gemm -json BENCH_gemm.json -min-speedup 1.5
//	cabench -obs-overhead 3            # fail if scheduler metrics cost >3%
//
// Modeled mode (default) builds the algorithms' real task graphs at the
// paper's sizes and schedules them in virtual time on the calibrated
// machine models; measured mode times the actual factorizations of
// fig3-fig8 and table1-table3 at reduced sizes and reports wall-clock
// GFlop/s. The ablations, scaling and comm stay modeled at reduced
// shapes, parity ignores the mode, and stability, dist and ooc keep their
// method at reduced sizes.
//
// -gemm runs the kernel-level performance trajectory instead: packed
// Goto-style Dgemm against the frozen baseline across square and panel
// shapes plus the engine-reuse end-to-end LU, each rate the median of 5
// interleaved packed/baseline windows of at least -sample, optionally
// writing the BENCH_gemm.json report and failing (exit 1) when the
// square-512 speedup drops below -min-speedup. CI's benchmark-smoke job
// runs exactly that gate; the checked-in BENCH_gemm.json is regenerated
// with a longer -sample for stable numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/factor"
	"repro/internal/bench"
	"repro/internal/sched"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		measured = flag.Bool("measured", false, "time the real factorizations of fig3-fig8 and table1-table3 at reduced scale; the ablations, scaling and comm stay modeled at reduced shapes, parity is unchanged")
		workers  = flag.Int("workers", 0, "goroutines for measured runs (0 = NumCPU)")
		verbose  = flag.Bool("v", false, "print progress")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")

		gemm       = flag.Bool("gemm", false, "run the GEMM kernel trajectory instead of paper experiments")
		jsonPath   = flag.String("json", "", "with -gemm: write the report as JSON to this path")
		minSpeedup = flag.Float64("min-speedup", 0, "with -gemm: exit 1 if the square-512 packed/baseline speedup is below this")
		sample     = flag.Duration("sample", 200*time.Millisecond, "with -gemm: minimum length of each of a case's 5 timing windows per side")

		obsOverhead    = flag.Float64("obs-overhead", 0, "measure scheduler-instrumentation overhead on engine-reuse; exit 1 if it exceeds this percent")
		verifyOverhead = flag.Float64("verify-overhead", 0, "measure ABFT checksum-verification overhead on engine-reuse; exit 1 if it exceeds this percent")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s (%s)\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	cfg := bench.Config{Workers: *workers}
	if *measured {
		cfg.Mode = bench.Measured
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}

	if *gemm {
		runGemm(cfg, *jsonPath, *minSpeedup, *sample)
		return
	}
	if *obsOverhead > 0 {
		// Scheduler instrumentation is a process-wide default read by each
		// new pool; always-on is restored after every window.
		runOverhead(cfg, "obs", *obsOverhead, func(on bool, _ *factor.Options) func() {
			sched.SetInstrumentation(on)
			return func() { sched.SetInstrumentation(true) }
		})
		return
	}
	if *verifyOverhead > 0 {
		runOverhead(cfg, "verify", *verifyOverhead, func(on bool, opt *factor.Options) func() {
			opt.Verify = on
			return nil
		})
		return
	}

	emit := func(t *bench.Table) {
		t.Format(os.Stdout)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, t.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "csv:", err)
				os.Exit(1)
			}
			t.WriteCSV(f)
			f.Close()
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			os.Exit(1)
		}
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			emit(e.Run(cfg))
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	emit(e.Run(cfg))
}

// runGemm executes the kernel trajectory, optionally writes the JSON
// report, and enforces the regression gate on the square-512 speedup.
func runGemm(cfg bench.Config, jsonPath string, minSpeedup float64, sample time.Duration) {
	rep := bench.RunGemmReport(cfg, sample)
	rep.Table().Format(os.Stdout)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		err = rep.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	if minSpeedup > 0 {
		got := rep.SpeedupAt("square-512")
		if got < minSpeedup {
			fmt.Fprintf(os.Stderr, "gemm regression gate: square-512 speedup %.2fx < required %.2fx\n", got, minSpeedup)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gemm gate ok: square-512 speedup %.2fx >= %.2fx\n", got, minSpeedup)
	}
}

// runOverhead runs one A/B overhead gate: engine-reuse with the toggled
// feature on vs off, the median of each side's interleaved windows,
// failing when the relative cost exceeds maxPct.
func runOverhead(cfg bench.Config, name string, maxPct float64, toggle bench.Toggle) {
	on, off := bench.ABOverhead(cfg, toggle)
	pct := on.PctOver(off)
	fmt.Printf("%s overhead: on %.2f ms/op (quartiles %.2f-%.2f), off %.2f ms/op (%.2f-%.2f), overhead %.2f%% (median of %d interleaved windows per side)\n",
		name, on.Median, on.Q1, on.Q3, off.Median, off.Q1, off.Q3, pct, len(on.Windows))
	if pct > maxPct {
		fmt.Fprintf(os.Stderr, "%s overhead gate: %.2f%% > allowed %.2f%%\n", name, pct, maxPct)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s overhead gate ok: %.2f%% <= %.2f%%\n", name, pct, maxPct)
}
