package bench

// One A/B timing harness: every timed comparison in this package and in
// cmd/calibrate — the overhead gates, the kernel trajectory, the measured
// tables, calibrate's rates and its block-size grid — runs its sides
// through Interleave and reads each side's median.

import "slices"

// Sample is one side's windows from Interleave.
type Sample struct {
	// Windows holds the side's values in run order.
	Windows []float64
	// Median, Q1 and Q3 are the sorted windows at indices n/2, n/4 and
	// n-1-n/4.
	Median, Q1, Q3 float64
}

// Interleave calls every side once per round, in order in even rounds and
// in reverse in odd ones (A B, B A, A B, ...), so a drift linear over two
// rounds adds the same to every side, and returns each side's windows.
// Each call of a side times one window and returns its value (a rate or a
// duration). rounds must be positive.
func Interleave(rounds int, sides ...func() float64) []Sample {
	out := make([]Sample, len(sides))
	for r := 0; r < rounds; r++ {
		for k := range sides {
			i := k
			if r%2 == 1 {
				i = len(sides) - 1 - k
			}
			out[i].Windows = append(out[i].Windows, sides[i]())
		}
	}
	for i := range out {
		w := slices.Clone(out[i].Windows)
		slices.Sort(w)
		n := len(w)
		out[i].Median, out[i].Q1, out[i].Q3 = w[n/2], w[n/4], w[n-1-n/4]
	}
	return out
}

// PctOver states s's median relative to base's, in percent:
// 100 * (s - base) / base. Negative values mean s read lower.
func (s Sample) PctOver(base Sample) float64 {
	return 100 * (s.Median - base.Median) / base.Median
}
