package bench

// A/B overhead gates: a feature that is meant to stay armed in production
// — the scheduler's always-on instrumentation, ABFT checksum verification —
// must cost little on the engine-reuse workload. ABOverhead times that
// workload with the feature on and off in alternating rounds of the same
// process — same heap state, same thermal envelope — and compares the best
// round of each side, so one GC pause or scheduler hiccup cannot fake (or
// hide) a regression. cmd/cabench -obs-overhead and -verify-overhead wire
// it into CI with a percentage ceiling each.

import (
	"fmt"
	"math"
	"time"

	"repro/factor"
)

// Toggle switches the feature under test for one measurement pass: it is
// called with on before the pass's engine is created, may adjust the
// pass's request options, and returns a func restoring any process-wide
// state it changed (nil if none), called when the pass ends.
type Toggle func(on bool, opt *factor.Options) (restore func())

// ABResult is one paired measurement of a feature's cost.
type ABResult struct {
	// Rounds is how many on/off pairs ran; the reported times are the
	// minimum over rounds (the least-disturbed run of each side).
	Rounds int
	// OnMsPerOp and OffMsPerOp are the best engine-reuse times with the
	// feature on and off.
	OnMsPerOp, OffMsPerOp float64
	// OverheadPct is 100 * (on - off) / off; negative values (noise) mean
	// the feature-on side happened to run faster.
	OverheadPct float64
}

// ABOverhead measures the overhead of the feature toggle switches on the
// engine-reuse workload (1000x200 LU, b = 100, Tr = 4, on a 4-worker
// engine). rounds <= 0 defaults to 3.
func ABOverhead(cfg Config, rounds int, toggle Toggle) *ABResult {
	if rounds <= 0 {
		rounds = 3
	}
	const (
		m, n, nb = 1000, 200, 100
		iters    = 10
	)
	orig := factor.Random(m, n, 3)

	// measure times one engine-reuse pass on a fresh engine, so the two
	// sides differ only in the toggled feature.
	measure := func(on bool) float64 {
		opt := factor.Options{BlockSize: nb, PanelThreads: 4}
		if restore := toggle(on, &opt); restore != nil {
			defer restore()
		}
		eng := factor.NewEngine(4)
		defer eng.Close()
		if _, err := eng.LU(orig.Clone(), opt); err != nil {
			panic(fmt.Sprintf("bench: overhead warmup LU failed: %v", err))
		}
		var total time.Duration
		for i := 0; i < iters; i++ {
			a := orig.Clone()
			start := time.Now()
			if _, err := eng.LU(a, opt); err != nil {
				panic(fmt.Sprintf("bench: overhead LU failed: %v", err))
			}
			total += time.Since(start)
		}
		return total.Seconds() * 1e3 / iters
	}

	res := &ABResult{Rounds: rounds, OnMsPerOp: math.Inf(1), OffMsPerOp: math.Inf(1)}
	for r := 0; r < rounds; r++ {
		progress(cfg, "overhead round %d/%d: on...", r+1, rounds)
		res.OnMsPerOp = math.Min(res.OnMsPerOp, measure(true))
		progress(cfg, "overhead round %d/%d: off...", r+1, rounds)
		res.OffMsPerOp = math.Min(res.OffMsPerOp, measure(false))
	}
	if res.OffMsPerOp > 0 {
		res.OverheadPct = 100 * (res.OnMsPerOp - res.OffMsPerOp) / res.OffMsPerOp
	}
	return res
}
