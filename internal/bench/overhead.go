package bench

// A/B overhead gates: a feature that is meant to stay armed in production
// — the scheduler's always-on instrumentation, ABFT checksum verification —
// must cost little on the engine-reuse workload. ABOverhead times that
// workload with the feature on and off in interleaved windows of the same
// process — same heap state, same thermal envelope — and compares the
// median window of each side, so neither a few slow windows nor one lucky
// one can fake (or hide) a regression. cmd/cabench -obs-overhead and
// -verify-overhead wire it into CI with a percentage ceiling each.

import (
	"fmt"
	"time"

	"repro/factor"
)

// overheadWindows is how many windows per side ABOverhead times. In A/A
// runs (a toggle that changes nothing) and planted-regression runs on a
// shared 2-vCPU host, the median of 41 tripped the gates less often than
// the best of 3 or 5 windows and caught the planted slowdowns at least as
// often (EXPERIMENTS.md, "Overhead gate statistic").
const overheadWindows = 41

// The engine-reuse workload: a 1000 x 200 LU, b = 100, Tr = 4, repeated
// reuseIters times per window on a 4-worker engine.
const (
	reuseM, reuseN, reuseNB = 1000, 200, 100
	reuseIters              = 10
)

// Toggle switches the feature under test for one measurement window: it
// is called with on before the window's engine is created, may adjust the
// window's request options, and returns a func restoring any process-wide
// state it changed (nil if none), called when the window ends.
type Toggle func(on bool, opt *factor.Options) (restore func())

// ABOverhead times the engine-reuse workload in overheadWindows windows
// per side, with the feature toggle switches on and off, and returns each
// side's windows in ms per LU. on.PctOver(off) is the feature's cost.
func ABOverhead(cfg Config, toggle Toggle) (on, off Sample) {
	orig := factor.Random(reuseM, reuseN, 3)
	side := func(on bool) func() float64 {
		return func() float64 {
			opt := factor.Options{BlockSize: reuseNB, PanelThreads: 4}
			if restore := toggle(on, &opt); restore != nil {
				defer restore()
			}
			return engineReuse(orig, opt)
		}
	}
	progress(cfg, "overhead: %d interleaved windows per side...", overheadWindows)
	s := Interleave(overheadWindows, side(true), side(false))
	return s[0], s[1]
}

// engineReuse times one window of the engine-reuse workload on a fresh
// engine, so two sides differ only in what their options and process-wide
// state differ in: one warm-up LU, then reuseIters timed LUs of clones of
// orig. It returns ms per LU, clones excluded.
func engineReuse(orig *factor.Matrix, opt factor.Options) float64 {
	eng := factor.NewEngine(4)
	defer eng.Close()
	if _, err := eng.LU(orig.Clone(), opt); err != nil {
		panic(fmt.Sprintf("bench: engine-reuse warmup LU failed: %v", err))
	}
	var total time.Duration
	for i := 0; i < reuseIters; i++ {
		a := orig.Clone()
		start := time.Now()
		if _, err := eng.LU(a, opt); err != nil {
			panic(fmt.Sprintf("bench: engine-reuse LU failed: %v", err))
		}
		total += time.Since(start)
	}
	return total.Seconds() * 1e3 / reuseIters
}
