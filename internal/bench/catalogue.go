package bench

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simsched"
	"repro/internal/tiled"
	"repro/internal/tslu"
)

// Parameters shared by the paper's experiments.
const (
	vendorNB   = 64  // modeled vendor-library panel width
	plasmaTile = 200 // PLASMA 2.0 default tile size
	acmlCores  = 8   // ACML's effective fork-join scaling on the NUMA Opteron
)

// platform is where an alg runs: a paper machine in virtual time (mach
// set), or this host on cores goroutines (mach nil).
type platform struct {
	mach *machine.Model
	// cores is mach.Cores, or the measured worker count.
	cores int
	// vendorCores is how many cores the vendor library's fork-join model
	// scales to: ACML reaches 8 of the AMD machine's 16, otherwise cores.
	vendorCores int
}

// The paper's two testbeds.
var (
	intel = platform{machine.Intel8(), 8, 8}
	amd   = platform{machine.AMD16(), 16, acmlCores}
)

// options is the paper's CALU/CAQR configuration for an m x n input on p
// (b = min(100, n), Tr = cores, binary tree, look-ahead) with edit applied.
// A measured square uses b = min(100, n/4), so its reduced order still
// factors several panels.
func (p platform) options(m, n int, edit func(o *core.Options, n int)) core.Options {
	o := core.DefaultOptions(n, p.cores)
	if p.mach == nil && m == n {
		o.BlockSize = min(o.BlockSize, n/4)
	}
	if edit != nil {
		edit(&o, n)
	}
	return o
}

// tiles is PLASMA's configuration on p: 200-wide tiles at paper scale; on
// this host 64 on squares and min(200, max(n, 8)) on tall inputs.
func (p platform) tiles(m, n int) tiled.Options {
	o := tiled.Options{TileSize: plasmaTile, Workers: p.cores}
	if p.mach == nil {
		o.TileSize = min(plasmaTile, max(n, 8))
		if m == n {
			o.TileSize = 64
		}
	}
	return o
}

// alg is one compared algorithm, defined once for both modes.
type alg struct {
	// col is the table column the algorithm fills.
	col string
	// flops is the canonical count GFlop/s is reported against.
	flops func(m, n int) float64
	// graph is the task graph an m x n input yields on a paper machine.
	graph func(m, n int, on platform) *sched.Graph
	// run factors a in place on this host.
	run func(a *matrix.Dense, on platform) error
}

// as renames e's column.
func (e alg) as(col string) alg {
	e.col = col
	return e
}

// modeled is e's GFlop/s on an m x n input scheduled in virtual time on
// on.mach.
func (e alg) modeled(m, n int, on platform) float64 {
	return simsched.Run(e.graph(m, n, on), on.mach).GFlops(e.flops(m, n))
}

// measured is e's GFlop/s factoring a fresh copy of orig on this host.
// Bench inputs are well-formed by construction, so an error is a bug.
func (e alg) measured(orig *matrix.Dense, on platform) float64 {
	a := orig.Clone()
	start := time.Now()
	if err := e.run(a, on); err != nil {
		panic(fmt.Sprintf("bench: %s on %dx%d: %v", e.col, a.Rows, a.Cols, err))
	}
	return gflops(e.flops(a.Rows, a.Cols), time.Since(start).Seconds())
}

// caluAlg is CALU under the paper's options with edit applied.
func caluAlg(col string, edit func(o *core.Options, n int)) alg {
	return alg{col, baseline.LUFlops,
		func(m, n int, on platform) *sched.Graph { return core.BuildCALUGraph(m, n, on.options(m, n, edit)) },
		func(a *matrix.Dense, on platform) error {
			_, err := core.CALU(a, on.options(a.Rows, a.Cols, edit))
			return err
		}}
}

// caqrAlg is CAQR under the paper's options with edit applied.
func caqrAlg(col string, edit func(o *core.Options, n int)) alg {
	return alg{col, baseline.QRFlops,
		func(m, n int, on platform) *sched.Graph { return core.BuildCAQRGraph(m, n, on.options(m, n, edit)) },
		func(a *matrix.Dense, on platform) error {
			_, err := core.CAQR(a, on.options(a.Rows, a.Cols, edit))
			return err
		}}
}

// calu is CALU with Tr = tr and a binary tree.
func calu(tr int) alg {
	return caluAlg(fmt.Sprintf("CALU(Tr=%d)", tr), func(o *core.Options, _ int) { o.PanelThreads = tr })
}

// caqr is CAQR with Tr = tr and a flat (height-1) tree, the configuration
// the paper found efficient.
func caqr(tr int) alg {
	return caqrAlg(fmt.Sprintf("CAQR(Tr=%d)", tr), func(o *core.Options, _ int) {
		o.PanelThreads, o.Tree = tr, tslu.Flat
	})
}

var (
	// tsqr is CAQR run as a single panel (b = n) with a binary tree over
	// Tr = cores block rows, the configuration the paper's Fig. 8 labels
	// "TSQR".
	tsqr = caqrAlg("TSQR", func(o *core.Options, n int) { o.BlockSize = n })

	// The vendor-library (dgetrf, dgeqrf), BLAS-2 (dgetf2, dgeqr2) and
	// PLASMA baselines.
	getrf = alg{"dgetrf", baseline.LUFlops,
		func(m, n int, on platform) *sched.Graph {
			return baseline.BuildGETRFGraph(m, n, vendorNB, on.vendorCores)
		},
		func(a *matrix.Dense, on platform) error {
			return lapack.PGETRF(a, make([]int, min(a.Rows, a.Cols)), vendorNB, on.vendorCores)
		}}
	getf2 = alg{"dgetf2", baseline.LUFlops,
		func(m, n int, _ platform) *sched.Graph { return baseline.BuildGETF2Graph(m, n) },
		func(a *matrix.Dense, _ platform) error { return lapack.GETF2(a, make([]int, min(a.Rows, a.Cols))) }}
	geqrf = alg{"dgeqrf", baseline.QRFlops,
		func(m, n int, on platform) *sched.Graph {
			return baseline.BuildGEQRFGraph(m, n, vendorNB, on.vendorCores)
		},
		func(a *matrix.Dense, on platform) error {
			lapack.PGEQRF(a, make([]float64, min(a.Rows, a.Cols)), vendorNB, on.vendorCores)
			return nil
		}}
	geqr2 = alg{"dgeqr2", baseline.QRFlops,
		func(m, n int, _ platform) *sched.Graph { return baseline.BuildGEQR2Graph(m, n) },
		func(a *matrix.Dense, _ platform) error {
			lapack.GEQR2(a, make([]float64, min(a.Rows, a.Cols)))
			return nil
		}}
	plasmaLU = alg{"PLASMA", baseline.LUFlops,
		func(m, n int, on platform) *sched.Graph { return tiled.BuildGETRFGraph(m, n, on.tiles(m, n)) },
		func(a *matrix.Dense, on platform) error {
			_, err := tiled.GETRF(a, on.tiles(a.Rows, a.Cols))
			return err
		}}
	plasmaQR = alg{"PLASMA", baseline.QRFlops,
		func(m, n int, on platform) *sched.Graph { return tiled.BuildGEQRFGraph(m, n, on.tiles(m, n)) },
		func(a *matrix.Dense, on platform) error {
			_, err := tiled.GEQRF(a, on.tiles(a.Rows, a.Cols))
			return err
		}}
)

// row is one input of a sweep.
type row struct {
	label string
	m, n  int
	// seed generates the measured input.
	seed int64
	// on is the paper machine the modeled run is scheduled on.
	on platform
}

// measuredWindows is how many windows per algorithm a measured cell is
// the median of.
const measuredWindows = 3

// fill adds a column per alg and every alg's GFlop/s on each input:
// simulated on the row's machine in modeled mode; in measured mode the
// median of measuredWindows runs, each on a fresh copy of the row's seeded
// input, the row's algorithms interleaved. Values land in the row with the
// input's label, appended if the table has none yet.
func (t *Table) fill(cfg Config, rows []row, algs ...alg) {
	for _, e := range algs {
		t.Columns = append(t.Columns, e.col)
	}
	host := platform{cores: workersOrCPU(cfg), vendorCores: workersOrCPU(cfg)}
	for _, r := range rows {
		progress(cfg, "%s: %s %s", t.ID, cfg.Mode, r.label)
		vals := t.row(r.label)
		if cfg.Mode == Modeled {
			for _, e := range algs {
				vals[e.col] = e.modeled(r.m, r.n, r.on)
			}
			continue
		}
		orig := matrix.Random(r.m, r.n, r.seed)
		sides := make([]func() float64, len(algs))
		for i, e := range algs {
			sides[i] = func() float64 { return e.measured(orig, host) }
		}
		for i, s := range Interleave(measuredWindows, sides...) {
			vals[algs[i].col] = s.Median
		}
	}
}

// row returns the values of the row labeled label, appending it if absent.
func (t *Table) row(label string) map[string]float64 {
	for _, r := range t.Rows {
		if r.Label == label {
			return r.Values
		}
	}
	t.Rows = append(t.Rows, RowData{Label: label, Values: map[string]float64{}})
	return t.Rows[len(t.Rows)-1].Values
}
