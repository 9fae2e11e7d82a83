package bench

// GEMM performance trajectory: the packed Goto-style Dgemm (internal/blas)
// against the frozen pre-refactor reference (internal/baseline), the
// triangular task-body kernels (recursive Dtrsm/Dtrmm) against theirs,
// plus the BenchmarkEngineReuse-shaped end-to-end LU as the workload-level
// check.
// cmd/cabench serializes the report to BENCH_gemm.json so the perf
// trajectory is checked in alongside the code, and CI gates on the 512
// square speedup staying above a floor.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/factor"
	"repro/internal/baseline"
	"repro/internal/blas"
)

// GemmCase is one measured GEMM shape.
type GemmCase struct {
	// Name labels the shape (square-512, panel-tall-update, ...).
	Name string `json:"name"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	// TransA marks cases run as Aᵀ·B ("T"); empty means no transpose. The
	// Larfb-shaped cases exercise the transposed pack path the QR
	// block-reflector applications hit.
	TransA string `json:"trans_a,omitempty"`
	// PackedGFlops is the packed-kernel rate, BaselineGFlops the frozen
	// reference kernel's rate, both measured in this run: each is the
	// median of 5 windows, the two sides' windows interleaved.
	PackedGFlops   float64 `json:"packed_gflops"`
	BaselineGFlops float64 `json:"baseline_gflops"`
	// Speedup is PackedGFlops / BaselineGFlops.
	Speedup float64 `json:"speedup"`
}

// TriCase is one measured triangular-kernel shape: the Dtrsm/Dtrmm call a
// CALU or CAQR task body issues, timed on the recursive packed driver and
// on the frozen reference.
type TriCase struct {
	// Name labels the task shape (calu-L, calu-U, larfb-trmm, larfb-t,
	// larfb-v1w).
	Name string `json:"name"`
	// Routine is "trsm" or "trmm"; Variant spells side, uplo, trans and
	// diag as BLAS letters (for example "RUNN": Right, Upper, NoTrans,
	// NonUnit).
	Routine string `json:"routine"`
	Variant string `json:"variant"`
	M       int    `json:"m"`
	N       int    `json:"n"`
	// PackedGFlops, BaselineGFlops and Speedup are as in GemmCase; the
	// flop count is m·n·order for a triangle of that order.
	PackedGFlops   float64 `json:"packed_gflops"`
	BaselineGFlops float64 `json:"baseline_gflops"`
	Speedup        float64 `json:"speedup"`
}

// EngineReuseResult is the end-to-end workload check: the
// BenchmarkEngineReuse shape (repeated 1000x200 CALU through a persistent
// engine) timed against the current BLAS. The "before" side of the
// trajectory lives in EXPERIMENTS.md, measured at the pre-refactor commit.
type EngineReuseResult struct {
	M         int `json:"m"`
	N         int `json:"n"`
	BlockSize int `json:"block_size"`
	// Iterations is the number of timed LUs per window.
	Iterations int `json:"iterations"`
	// MsPerOp is the median over 5 windows of each window's ms per LU.
	MsPerOp float64 `json:"ms_per_op"`
}

// GemmReport is the serialized BENCH_gemm.json payload.
type GemmReport struct {
	// Kernel identifies the active microkernel (see blas.KernelName).
	Kernel string `json:"kernel"`
	GOARCH string `json:"goarch"`
	GOOS   string `json:"goos"`
	NumCPU int    `json:"num_cpu"`
	// MC, KC, NC are the cache block sizes the packed driver ran with.
	MC int `json:"mc"`
	KC int `json:"kc"`
	NC int `json:"nc"`
	// Cases covers 128-1024 square plus the panel shapes the factorizations
	// actually issue.
	Cases []GemmCase `json:"cases"`
	// Triangular covers the Dtrsm/Dtrmm shapes of the task bodies.
	Triangular []TriCase `json:"triangular"`
	// EngineReuse is the end-to-end LU workload measurement.
	EngineReuse EngineReuseResult `json:"engine_reuse"`
}

// gemmShapes are the trajectory points: the 128-1024 square sweep,
// the panel shapes CALU/CAQR trailing updates issue (tall A against a
// narrow panel, a rank-b trailing update, and the square S(LU) task at
// Tr = 4, whose n = 100 ends in a fringe tile), and the Larfb block-reflector
// shapes (W = Vᵀ·C against a tall-skinny V, the C -= V·W rank-b apply, and
// the small T-sized triangle product) the QR update path spends its time in.
var gemmShapes = []struct {
	name    string
	ta      blas.Transpose
	m, n, k int
}{
	{"square-128", blas.NoTrans, 128, 128, 128},
	{"square-256", blas.NoTrans, 256, 256, 256},
	{"square-512", blas.NoTrans, 512, 512, 512},
	{"square-1024", blas.NoTrans, 1024, 1024, 1024},
	{"panel-tall-update", blas.NoTrans, 1024, 128, 128},
	{"panel-wide-update", blas.NoTrans, 128, 1024, 128},
	{"trailing-rank100", blas.NoTrans, 900, 900, 100},
	{"s-task", blas.NoTrans, 231, 100, 100},
	{"larfb-vtc", blas.Trans, 64, 256, 1984},
	{"larfb-cvw", blas.NoTrans, 1984, 256, 64},
	{"larfb-small-t", blas.NoTrans, 64, 256, 64},
}

// triShapes are the triangular calls inside the factorization tasks:
// CALU's L block (X·U = A below the panel's composite), its U block
// (L\A right of the panel) and the three products of every Larfb (CAQR S
// tasks, GEQR3 nodes): V1ᵀ·C1 that opens it, Tᵀ·W and the closing V1·W.
var triShapes = []struct {
	name, routine, variant string
	side                   blas.Side
	uplo                   blas.Uplo
	trans                  blas.Transpose
	diag                   blas.Diag
	m, n                   int
}{
	{"calu-L", "trsm", "RUNN", blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 2500, 100},
	{"calu-U", "trsm", "LLNU", blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 100, 100},
	{"larfb-trmm", "trmm", "LLTU", blas.Left, blas.Lower, blas.Trans, blas.Unit, 100, 100},
	{"larfb-t", "trmm", "LUTN", blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 100, 100},
	{"larfb-v1w", "trmm", "LLNU", blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 100, 100},
}

// gemmKernel is a Dgemm-shaped routine; triKernel a Dtrsm/Dtrmm-shaped one.
type (
	gemmKernel func(transA, transB blas.Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int)
	triKernel  func(side blas.Side, uplo blas.Uplo, trans blas.Transpose, diag blas.Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int)
)

// gemmSide returns a side that times one window of run at m x n x k, with
// op(A) = Aᵀ when ta is Trans (A stored k x m).
func gemmSide(ta blas.Transpose, m, n, k int, minSample time.Duration, run gemmKernel) func() float64 {
	lda := m
	if ta == blas.Trans {
		lda = k
	}
	a, b, c := fillSeq(m*k), fillSeq(k*n), make([]float64, m*n)
	return func() float64 {
		return window(minSample, 2*float64(m)*float64(n)*float64(k), nil, func() {
			run(ta, blas.NoTrans, m, n, k, 1, a, lda, b, k, 0, c, m)
		})
	}
}

// triSide returns a side that times one window of run at the given shape.
// B is reset from a saved copy before every call, outside the timed
// region, so repeated solves or products cannot drift into subnormals.
func triSide(side blas.Side, uplo blas.Uplo, trans blas.Transpose, diag blas.Diag, m, n int, minSample time.Duration, run triKernel) func() float64 {
	na := m
	if side == blas.Right {
		na = n
	}
	a := fillSeq(na * na)
	for i := range a {
		a[i] /= float64(8 * na)
	}
	for i := 0; i < na; i++ {
		a[i*na+i] = 1
	}
	b0 := fillSeq(m * n)
	b := make([]float64, m*n)
	return func() float64 {
		return window(minSample, float64(m)*float64(n)*float64(na), func() { copy(b, b0) }, func() {
			run(side, uplo, trans, diag, m, n, 1, a, na, b, m)
		})
	}
}

// window times one window of a kernel case: after a warm-up call (pools,
// page faults) it repeats run until at least minSample has been timed
// over two or more calls, so short cases aren't timer noise, and returns
// GFlop/s at flops per call. reset, when not nil, runs before every call,
// outside the timed region.
func window(minSample time.Duration, flops float64, reset, run func()) float64 {
	var el time.Duration
	for reps := 0; ; reps++ {
		if reset != nil {
			reset()
		}
		start := time.Now()
		run()
		if reps == 0 {
			continue
		}
		el += time.Since(start)
		if el >= minSample && reps >= 2 {
			return gflops(flops*float64(reps), el.Seconds())
		}
	}
}

// fillSeq produces a deterministic non-constant operand.
func fillSeq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i%17) - 8
	}
	return s
}

// gemmWindows is the number of timing windows per side of each case, and
// of the engine-reuse measurement.
const gemmWindows = 5

// RunGemmReport measures the full trajectory. Every case's packed and
// baseline rates are each the median of 5 interleaved windows of at least
// minSample (CI smoke uses a short sample, the checked-in report a longer
// one).
func RunGemmReport(cfg Config, minSample time.Duration) *GemmReport {
	mc, kc, nc := blas.BlockSizes()
	rep := &GemmReport{
		Kernel: blas.KernelName(),
		GOARCH: runtime.GOARCH,
		GOOS:   runtime.GOOS,
		NumCPU: runtime.NumCPU(),
		MC:     mc,
		KC:     kc,
		NC:     nc,
	}
	for _, s := range gemmShapes {
		progress(cfg, "gemm %s: packed and baseline, %d windows each...", s.name, gemmWindows)
		w := Interleave(gemmWindows,
			gemmSide(s.ta, s.m, s.n, s.k, minSample, blas.Dgemm),
			gemmSide(s.ta, s.m, s.n, s.k, minSample, baseline.RefGemm))
		gc := GemmCase{Name: s.name, M: s.m, N: s.n, K: s.k,
			PackedGFlops: w[0].Median, BaselineGFlops: w[1].Median, Speedup: w[0].Median / w[1].Median}
		if s.ta == blas.Trans {
			gc.TransA = "T"
		}
		rep.Cases = append(rep.Cases, gc)
	}
	for _, s := range triShapes {
		packed, ref := triKernel(blas.Dtrsm), triKernel(baseline.RefTrsm)
		if s.routine == "trmm" {
			packed, ref = blas.Dtrmm, baseline.RefTrmm
		}
		progress(cfg, "tri %s: packed and baseline, %d windows each...", s.name, gemmWindows)
		w := Interleave(gemmWindows,
			triSide(s.side, s.uplo, s.trans, s.diag, s.m, s.n, minSample, packed),
			triSide(s.side, s.uplo, s.trans, s.diag, s.m, s.n, minSample, ref))
		rep.Triangular = append(rep.Triangular, TriCase{Name: s.name, Routine: s.routine, Variant: s.variant, M: s.m, N: s.n,
			PackedGFlops: w[0].Median, BaselineGFlops: w[1].Median, Speedup: w[0].Median / w[1].Median})
	}
	progress(cfg, "engine-reuse: %d windows of %d %dx%d LUs...", gemmWindows, reuseIters, reuseM, reuseN)
	orig := factor.Random(reuseM, reuseN, 3)
	w := Interleave(gemmWindows, func() float64 {
		return engineReuse(orig, factor.Options{BlockSize: reuseNB, PanelThreads: 4})
	})
	rep.EngineReuse = EngineReuseResult{M: reuseM, N: reuseN, BlockSize: reuseNB, Iterations: reuseIters, MsPerOp: w[0].Median}
	return rep
}

// SpeedupAt returns the measured speedup for the named case, or 0 if the
// report has no such case.
func (r *GemmReport) SpeedupAt(name string) float64 {
	for _, c := range r.Cases {
		if c.Name == name {
			return c.Speedup
		}
	}
	return 0
}

// WriteJSON serializes the report, indented for stable diffs in-tree.
func (r *GemmReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Table renders the report in the cabench table format.
func (r *GemmReport) Table() *Table {
	t := &Table{
		ID:       "gemm",
		Title:    "Packed Dgemm and Dtrsm/Dtrmm vs frozen baseline (GFlop/s)",
		PaperRef: "kernel trajectory (doc/KERNELS.md)",
		Columns:  []string{"packed", "baseline", "speedup"},
		Unit:     "GFlop/s (speedup is a ratio)",
		Notes: fmt.Sprintf("kernel=%s MC=%d KC=%d NC=%d; engine-reuse %dx%d LU: %.2f ms/op",
			r.Kernel, r.MC, r.KC, r.NC, r.EngineReuse.M, r.EngineReuse.N, r.EngineReuse.MsPerOp),
	}
	for _, c := range r.Cases {
		t.Rows = append(t.Rows, RowData{
			Label: fmt.Sprintf("%s (%dx%dx%d)", c.Name, c.M, c.N, c.K),
			Values: map[string]float64{
				"packed": c.PackedGFlops, "baseline": c.BaselineGFlops, "speedup": c.Speedup,
			},
		})
	}
	for _, c := range r.Triangular {
		t.Rows = append(t.Rows, RowData{
			Label: fmt.Sprintf("%s %s %s (%dx%d)", c.Name, c.Routine, c.Variant, c.M, c.N),
			Values: map[string]float64{
				"packed": c.PackedGFlops, "baseline": c.BaselineGFlops, "speedup": c.Speedup,
			},
		})
	}
	return t
}
