package core

import (
	"testing"

	"repro/internal/matrix"
)

// BenchmarkPrepareCALU times PrepareCALU on the paper's tall 10^4 x 200
// input at b = 100 and Tr = 4, the benchmark's tall configuration: the
// input scan and the task-graph build, the serial part of a request before
// its first task runs.
func BenchmarkPrepareCALU(b *testing.B) {
	a := matrix.Random(10000, 200, 1)
	opt := Options{BlockSize: 100, PanelThreads: 4, Workers: 2, Lookahead: true}
	for i := 0; i < b.N; i++ {
		if _, err := PrepareCALU(a, opt); err != nil {
			b.Fatal(err)
		}
	}
}
