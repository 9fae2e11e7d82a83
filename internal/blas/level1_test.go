package blas

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestIdamax(t *testing.T) {
	cases := []struct {
		x    []float64
		inc  int
		want int
	}{
		{[]float64{1, -5, 3}, 1, 1},
		{[]float64{-2, 2}, 1, 0}, // first occurrence wins on ties
		{[]float64{0, 0, 0}, 1, 0},
		{[]float64{1, 99, 4, 99, -7, 99}, 2, 2}, // strided: sees 1, 4, -7
	}
	for _, c := range cases {
		n := len(c.x)
		if c.inc > 1 {
			n = (len(c.x) + c.inc - 1) / c.inc
		}
		if got := Idamax(n, c.x, c.inc); got != c.want {
			t.Errorf("Idamax(%v, inc=%d) = %d, want %d", c.x, c.inc, got, c.want)
		}
	}
	if got := Idamax(0, nil, 1); got != -1 {
		t.Errorf("Idamax(0) = %d, want -1", got)
	}
}

func TestDscal(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	Dscal(4, 2, x, 1)
	for i, want := range []float64{2, 4, 6, 8} {
		if x[i] != want {
			t.Fatalf("x = %v", x)
		}
	}
	y := []float64{1, 2, 3, 4}
	Dscal(2, 10, y, 2)
	if y[0] != 10 || y[1] != 2 || y[2] != 30 || y[3] != 4 {
		t.Fatalf("strided scal: %v", y)
	}
}

func TestDaxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Daxpy(3, 2, x, 1, y, 1)
	for i, want := range []float64{12, 24, 36} {
		if y[i] != want {
			t.Fatalf("y = %v", y)
		}
	}
	// alpha == 0 is a no-op.
	Daxpy(3, 0, x, 1, y, 1)
	if y[0] != 12 {
		t.Fatal("alpha=0 changed y")
	}
}

func TestDdot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Ddot(3, x, 1, y, 1); got != 32 {
		t.Fatalf("Ddot = %v", got)
	}
	if got := Ddot(0, nil, 1, nil, 1); got != 0 {
		t.Fatalf("empty Ddot = %v", got)
	}
}

func TestDnrm2(t *testing.T) {
	x := []float64{3, 4}
	if got := Dnrm2(2, x, 1); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Dnrm2 = %v", got)
	}
	// Overflow safety.
	big := []float64{1e300, 1e300}
	want := 1e300 * math.Sqrt(2)
	if got := Dnrm2(2, big, 1); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Dnrm2 overflow: %v", got)
	}
	// Underflow safety.
	tiny := []float64{1e-300, 1e-300}
	wantT := 1e-300 * math.Sqrt(2)
	if got := Dnrm2(2, tiny, 1); math.Abs(got-wantT)/wantT > 1e-14 {
		t.Fatalf("Dnrm2 underflow: %v", got)
	}
}

func TestDdotCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := matrix.Random(17, 1, seed).Col(0)
		b := matrix.Random(17, 1, seed+1).Col(0)
		return math.Abs(Ddot(17, a, 1, b, 1)-Ddot(17, b, 1, a, 1)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDnrm2MatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := matrix.Random(33, 1, seed).Col(0)
		naive := 0.0
		for _, v := range x {
			naive += v * v
		}
		naive = math.Sqrt(naive)
		return math.Abs(Dnrm2(33, x, 1)-naive) <= 1e-12*(1+naive)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStridedVariants(t *testing.T) {
	// Exercise every strided (incX/incY != 1) code path.
	x := []float64{1, 0, 2, 0, 3, 0}
	y := []float64{10, 0, 0, 20, 0, 0, 30, 0, 0}
	Daxpy(3, 2, x, 2, y, 3)
	if y[0] != 12 || y[3] != 24 || y[6] != 36 {
		t.Fatalf("strided Daxpy: %v", y)
	}
	if got := Ddot(3, x, 2, y, 3); got != 1*12+2*24+3*36 {
		t.Fatalf("strided Ddot = %v", got)
	}
	nrm := Dnrm2(2, []float64{3, 99, 4, 99}, 2)
	if math.Abs(nrm-5) > 1e-14 {
		t.Fatalf("strided Dnrm2 = %v", nrm)
	}
}

func TestBadIncrementPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Idamax": func() { Idamax(2, []float64{1, 2}, 0) },
		"Dscal":  func() { Dscal(2, 1, []float64{1, 2}, -1) },
		"Daxpy":  func() { Daxpy(2, 1, []float64{1, 2}, 0, []float64{1, 2}, 1) },
		"Ddot":   func() { Ddot(2, []float64{1, 2}, 1, []float64{1, 2}, 0) },
		"Dnrm2":  func() { Dnrm2(2, []float64{1, 2}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on bad increment", name)
				}
			}()
			f()
		}()
	}
}

func TestZeroLengthNoops(t *testing.T) {
	// n <= 0 must be a silent no-op for every level-1 routine.
	Dscal(0, 2, nil, 1)
	Daxpy(-1, 2, nil, 1, nil, 1)
	if Dnrm2(0, nil, 1) != 0 || Ddot(0, nil, 1, nil, 1) != 0 || Dsum(nil) != 0 {
		t.Fatal("zero-length reductions must return 0")
	}
}
