package lapack

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestInterchangesMatchSwapRowsReplay checks the column-ordered interchange
// loop behind LASWP and LASWPBackward against a replay of
// matrix.SwapRows, one row swap at a time. Swap lists are random with
// repeated targets and self-swaps, start at r0 > 0, and act on views whose
// stride exceeds their row count; the whole backing slice, padding
// included, must come out bit-identical.
func TestInterchangesMatchSwapRowsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		rows := 2 + rng.Intn(40)
		cols := 1 + rng.Intn(9)
		pad := 1 + rng.Intn(4)
		r0 := 1 + rng.Intn(rows-1)
		sw := make([]int, rng.Intn(rows-r0+1))
		hot := [3]int{rng.Intn(rows), rng.Intn(rows), r0}
		for j := range sw {
			switch rng.Intn(4) {
			case 0:
				sw[j] = hot[rng.Intn(len(hot))]
			case 1:
				sw[j] = r0 + j
			default:
				sw[j] = rng.Intn(rows)
			}
		}
		// ipiv carries the same list LAPACK-style: entry r0+j pairs row
		// r0+j with sw[j]; the leading r0 entries are outside the range.
		ipiv := make([]int, r0+len(sw))
		copy(ipiv[r0:], sw)

		orig := matrix.Random(rows+2*pad, cols+2, int64(trial))
		view := func(m *matrix.Dense) *matrix.Dense { return m.View(pad, 1, rows, cols) }
		replay := func(reverse bool) *matrix.Dense {
			m := orig.Clone()
			v := view(m)
			for k := range sw {
				j := k
				if reverse {
					j = len(sw) - 1 - k
				}
				v.SwapRows(r0+j, sw[j])
			}
			return m
		}
		forward, backward := replay(false), replay(true)
		for _, tc := range []struct {
			name  string
			apply func(*matrix.Dense)
			want  *matrix.Dense
		}{
			{"Interchange", func(v *matrix.Dense) { Interchange(v, sw, r0, false) }, forward},
			{"Interchange undo", func(v *matrix.Dense) { Interchange(v, sw, r0, true) }, backward},
			{"LASWP", func(v *matrix.Dense) { LASWP(v, ipiv, r0, len(ipiv)) }, forward},
			{"LASWPBackward", func(v *matrix.Dense) { LASWPBackward(v, ipiv, r0, len(ipiv)) }, backward},
		} {
			got := orig.Clone()
			tc.apply(view(got))
			if !got.Equal(tc.want) {
				t.Fatalf("trial %d: %s(rows=%d r0=%d sw=%v) differs from the SwapRows replay", trial, tc.name, rows, r0, sw)
			}
		}
		undone := forward.Clone()
		LASWPBackward(view(undone), ipiv, r0, len(ipiv))
		if !undone.Equal(orig) {
			t.Fatalf("trial %d: LASWPBackward does not revert LASWP", trial)
		}
	}
}

// TestInterchangeOutOfRangePanics: a pivot outside the view still panics,
// with the typed shape error.
func TestInterchangeOutOfRangePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(*matrix.Dense)
	}{
		{"Interchange", func(a *matrix.Dense) { Interchange(a, []int{1, 6}, 1, false) }},
		{"Interchange undo", func(a *matrix.Dense) { Interchange(a, []int{-1}, 0, true) }},
		{"LASWP", func(a *matrix.Dense) { LASWP(a, []int{0, 9}, 0, 2) }},
		{"LASWPBackward", func(a *matrix.Dense) { LASWPBackward(a, []int{0, 3, 6}, 1, 3) }},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrShape) {
					t.Fatalf("%s: recovered %v, want a panic wrapping ErrShape", tc.name, err)
				}
			}()
			tc.apply(matrix.Random(8, 3, 1).View(1, 0, 6, 3))
		}()
	}
}
