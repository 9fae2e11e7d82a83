package factor

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestFactorChecksumSeesEveryLane flips one bit of one element at every
// row position mod 8 of a tall factor, in the eight-element blocks and in
// a column's tail, and checks that the checksum changes every time and
// returns when the bit is flipped back.
func TestFactorChecksumSeesEveryLane(t *testing.T) {
	a := Random(1003, 6, 5) // 1003 = 125*8 + 3: each column ends in a 3-element tail
	f := &LUFactorization{res: &core.LUResult{A: a}}
	want := factorChecksum(f)
	for _, row := range []int{0, 1, 2, 3, 4, 5, 6, 7, 500, 997, 1000, 1001, 1002} {
		for _, bit := range []uint{0, 31, 52, 63} {
			x := &a.Data[4*a.Stride+row]
			orig := *x
			*x = math.Float64frombits(math.Float64bits(orig) ^ 1<<bit)
			if got := factorChecksum(f); got == want {
				t.Errorf("row %d (lane %d) bit %d flipped: checksum unchanged", row, row%8, bit)
			}
			*x = orig
			if got := factorChecksum(f); got != want {
				t.Fatalf("row %d bit %d restored: checksum %#x, want %#x", row, bit, got, want)
			}
		}
	}
}

// BenchmarkFactorChecksum digests the paper's tall 10^4 x 200 factor (16
// MB), the work every result-cache hit repeats.
func BenchmarkFactorChecksum(b *testing.B) {
	a := Random(10000, 200, 1)
	f := &LUFactorization{res: &core.LUResult{A: a}}
	b.SetBytes(int64(8 * len(a.Data)))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= factorChecksum(f)
	}
	if sink == 1 {
		b.Log(sink)
	}
}
