package bench

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/factor"
)

// TestInterleaveOrder runs scripted sides that record their calls: even
// rounds run the sides in order, odd rounds in reverse.
func TestInterleaveOrder(t *testing.T) {
	for _, tc := range []struct {
		rounds int
		sides  string
		want   string
	}{
		{4, "ABC", "ABCCBAABCCBA"},
		{3, "AB", "ABBAAB"},
		{2, "AB", "ABBA"},
		{1, "AB", "AB"},
		{3, "A", "AAA"},
	} {
		var calls strings.Builder
		sides := make([]func() float64, len(tc.sides))
		for i, name := range tc.sides {
			sides[i] = func() float64 {
				calls.WriteRune(name)
				return float64(i)
			}
		}
		got := Interleave(tc.rounds, sides...)
		if calls.String() != tc.want {
			t.Errorf("Interleave(%d, %s) called %s, want %s", tc.rounds, tc.sides, calls.String(), tc.want)
		}
		if len(got) != len(tc.sides) {
			t.Fatalf("Interleave(%d, %s) returned %d samples", tc.rounds, tc.sides, len(got))
		}
		for i, s := range got {
			if len(s.Windows) != tc.rounds || s.Median != float64(i) {
				t.Errorf("Interleave(%d, %s) side %d: windows %v, median %g", tc.rounds, tc.sides, i, s.Windows, s.Median)
			}
		}
	}
}

// TestInterleaveStatistics feeds a side the values 1..n in a scrambled
// order: Windows must keep that order, and the median and quartiles must
// be the sorted windows at n/2, n/4 and n-1-n/4, the convention calibrate
// -tune and the kernel trajectory reported before they shared this code.
func TestInterleaveStatistics(t *testing.T) {
	for _, tc := range []struct {
		n              int
		median, q1, q3 float64
	}{
		{1, 1, 1, 1},
		{2, 2, 1, 2},
		{3, 2, 1, 3},
		{5, 3, 2, 4},
		{41, 21, 11, 31},
	} {
		vals := make([]float64, tc.n)
		for i := range vals {
			vals[i] = float64((i*17)%tc.n + 1) // 17 is coprime to every n here
		}
		next := 0
		s := Interleave(tc.n, func() float64 { next++; return vals[next-1] })[0]
		if !slices.Equal(s.Windows, vals) {
			t.Errorf("n=%d: windows %v, want run order %v", tc.n, s.Windows, vals)
		}
		if s.Median != tc.median || s.Q1 != tc.q1 || s.Q3 != tc.q3 {
			t.Errorf("n=%d: median %g, quartiles %g-%g, want %g, %g-%g", tc.n, s.Median, s.Q1, s.Q3, tc.median, tc.q1, tc.q3)
		}
	}
}

func TestPctOver(t *testing.T) {
	for _, tc := range []struct{ s, base, want float64 }{
		{103, 100, 3},
		{95, 100, -5},
		{4.2, 4.2, 0},
		{12, 8, 50},
	} {
		if got := (Sample{Median: tc.s}).PctOver(Sample{Median: tc.base}); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%g over %g: %g%%, want %g%%", tc.s, tc.base, got, tc.want)
		}
	}
}

// TestABOverheadToggleContract runs the real gate workload with a toggle
// that changes nothing: the toggle is called once per window, on and off
// in ABBA order, and each window's restore runs before the next window
// starts.
func TestABOverheadToggleContract(t *testing.T) {
	if testing.Short() {
		t.Skip("times the engine-reuse workload in 82 windows")
	}
	var calls []bool
	ons, restored := 0, 0
	on, off := ABOverhead(Config{}, func(on bool, opt *factor.Options) func() {
		if restored != ons {
			t.Errorf("window %d starts after %d restores, want %d", len(calls), restored, ons)
		}
		calls = append(calls, on)
		if on {
			ons++
			return func() { restored++ }
		}
		return nil
	})
	if len(calls) != 2*overheadWindows {
		t.Fatalf("toggle called %d times, want %d", len(calls), 2*overheadWindows)
	}
	for i, c := range calls {
		if want := ((i/2)%2 == 0) == (i%2 == 0); c != want {
			t.Fatalf("call %d: on = %v, want %v (ABBA order); calls %v", i, c, want, calls)
		}
	}
	if restored != overheadWindows {
		t.Errorf("%d restores ran, want %d", restored, overheadWindows)
	}
	for _, s := range []Sample{on, off} {
		if len(s.Windows) != overheadWindows || !(s.Median > 0) {
			t.Errorf("side has %d windows, median %g ms", len(s.Windows), s.Median)
		}
	}
	if pct := on.PctOver(off); math.IsNaN(pct) || math.IsInf(pct, 0) {
		t.Errorf("overhead %g%%", pct)
	}
}
