package bench

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simsched"
	"repro/internal/tiled"
	"repro/internal/tslu"
)

// caqrModelGF simulates CAQR at the given size/options.
func caqrModelGF(m, n int, opt core.Options, mach *machine.Model) float64 {
	g := core.BuildCAQRGraph(m, n, opt)
	return simsched.Run(g, mach).GFlops(baseline.QRFlops(m, n))
}

// tsqrOptions is TSQR run as a single CAQR panel: block size = n, binary
// reduction tree over Tr block rows (the configuration the paper's Fig. 8
// labels "TSQR").
func tsqrOptions(n, tr, workers int) core.Options {
	return core.Options{BlockSize: n, PanelThreads: tr, Tree: tslu.Binary, Workers: workers, Lookahead: true}
}

// caqrOptions is the paper's CAQR configuration for Fig. 8: b = min(100,n),
// Tr = 4, and a reduction tree of height one (flat), which the paper found
// the efficient choice.
func caqrOptions(n, workers int) core.Options {
	return core.Options{BlockSize: paperB(n), PanelThreads: 4, Tree: tslu.Flat, Workers: workers, Lookahead: true}
}

func qrRowModel(m, n int, mach *machine.Model) map[string]float64 {
	canon := baseline.QRFlops(m, n)
	vals := map[string]float64{}
	vals["TSQR"] = caqrModelGF(m, n, tsqrOptions(n, mach.Cores, 0), mach)
	vals["CAQR(Tr=4)"] = caqrModelGF(m, n, caqrOptions(n, 0), mach)
	vals["dgeqrf"] = simsched.Run(baseline.BuildGEQRFGraph(m, n, vendorNB, mach.Cores), mach).GFlops(canon)
	vals["dgeqr2"] = simsched.Run(baseline.BuildGEQR2Graph(m, n), mach).GFlops(canon)
	vals["PLASMA"] = simsched.Run(tiled.BuildGEQRFGraph(m, n, tiled.Options{TileSize: plasmaTile, Workers: mach.Cores}), mach).GFlops(canon)
	return vals
}

func qrRowMeasured(m, n, workers int) map[string]float64 {
	canon := baseline.QRFlops(m, n)
	vals := map[string]float64{}
	orig := matrix.Random(m, n, int64(m-n))
	{
		a := orig.Clone()
		secs := timeIt(func() { mustQR(core.CAQR(a, tsqrOptions(n, workers, workers))) })
		vals["TSQR"] = gflops(canon, secs)
	}
	{
		a := orig.Clone()
		secs := timeIt(func() { mustQR(core.CAQR(a, caqrOptions(n, workers))) })
		vals["CAQR(Tr=4)"] = gflops(canon, secs)
	}
	{
		a := orig.Clone()
		tau := make([]float64, min(m, n))
		secs := timeIt(func() { lapack.PGEQRF(a, tau, vendorNB, workers) })
		vals["dgeqrf"] = gflops(canon, secs)
	}
	{
		a := orig.Clone()
		tau := make([]float64, min(m, n))
		secs := timeIt(func() { lapack.GEQR2(a, tau) })
		vals["dgeqr2"] = gflops(canon, secs)
	}
	{
		a := orig.Clone()
		secs := timeIt(func() {
			if _, err := tiled.GEQRF(a, tiled.Options{TileSize: min(plasmaTile, max(n, 8)), Workers: workers}); err != nil {
				panic(err)
			}
		})
		vals["PLASMA"] = gflops(canon, secs)
	}
	return vals
}

func init() {
	register(Experiment{
		ID:       "fig8",
		Title:    "QR of tall-skinny matrices, m=10^5, 8-core Intel",
		PaperRef: "Figure 8",
		Run: func(cfg Config) *Table {
			t := &Table{
				ID:       "fig8",
				Title:    "QR of tall-skinny matrices, m=10^5, 8-core Intel",
				PaperRef: "Figure 8",
				Unit:     "GFlop/s",
				Columns:  []string{"TSQR", "CAQR(Tr=4)", "dgeqrf", "dgeqr2", "PLASMA"},
			}
			mach := machine.Intel8()
			var ns []int
			mModel, mMeasured := 100000, 20000
			if cfg.Mode == Modeled {
				ns = []int{10, 25, 50, 100, 150, 200, 500, 1000}
			} else {
				ns = []int{10, 25, 50, 100, 200}
			}
			for _, n := range ns {
				var vals map[string]float64
				m := mModel
				if cfg.Mode == Modeled {
					progress(cfg, "fig8: modeling m=%d n=%d", mModel, n)
					vals = qrRowModel(mModel, n, mach)
				} else {
					m = mMeasured
					progress(cfg, "fig8: measuring m=%d n=%d", mMeasured, n)
					vals = qrRowMeasured(mMeasured, n, workersOrCPU(cfg))
				}
				t.Rows = append(t.Rows, RowData{Label: rowLabel(m, n), Values: vals})
			}
			t.Notes = "TSQR = single-panel CAQR (b=n, binary tree); CAQR uses b=min(100,n), Tr=4, flat (height-1) tree as in the paper."
			return t
		},
	})
	register(Experiment{
		ID:       "table3",
		Title:    "QR of square matrices, 8-core Intel",
		PaperRef: "Table III",
		Run: func(cfg Config) *Table {
			t := &Table{
				ID:       "table3",
				Title:    "QR of square matrices, 8-core Intel",
				PaperRef: "Table III",
				Unit:     "GFlop/s",
				Columns:  []string{"MKL", "PLASMA"},
			}
			trs := []int{1, 2, 4, 8}
			for _, tr := range trs {
				t.Columns = append(t.Columns, "CAQR(Tr="+itoa(tr)+")")
			}
			mach := machine.Intel8()
			sizes := []int{1000, 2000, 3000, 4000, 5000}
			if cfg.Mode == Measured {
				sizes = []int{256, 512, 768}
			}
			for _, n := range sizes {
				canon := baseline.QRFlops(n, n)
				vals := map[string]float64{}
				if cfg.Mode == Modeled {
					progress(cfg, "table3: modeling n=%d", n)
					vals["MKL"] = simsched.Run(baseline.BuildGEQRFGraph(n, n, vendorNB, mach.Cores), mach).GFlops(canon)
					vals["PLASMA"] = simsched.Run(tiled.BuildGEQRFGraph(n, n, tiled.Options{TileSize: plasmaTile, Workers: mach.Cores}), mach).GFlops(canon)
					for _, tr := range trs {
						opt := core.Options{BlockSize: paperBlock, PanelThreads: tr, Tree: tslu.Flat, Lookahead: true}
						vals["CAQR(Tr="+itoa(tr)+")"] = caqrModelGF(n, n, opt, mach)
					}
				} else {
					progress(cfg, "table3: measuring n=%d", n)
					workers := workersOrCPU(cfg)
					orig := matrix.Random(n, n, int64(n+1))
					{
						a := orig.Clone()
						tau := make([]float64, n)
						secs := timeIt(func() { lapack.PGEQRF(a, tau, vendorNB, workers) })
						vals["MKL"] = gflops(canon, secs)
					}
					{
						a := orig.Clone()
						secs := timeIt(func() {
							if _, err := tiled.GEQRF(a, tiled.Options{TileSize: 64, Workers: workers}); err != nil {
								panic(err)
							}
						})
						vals["PLASMA"] = gflops(canon, secs)
					}
					for _, tr := range trs {
						a := orig.Clone()
						opt := core.Options{BlockSize: min(paperBlock, n/4), PanelThreads: tr, Tree: tslu.Flat, Workers: workers, Lookahead: true}
						secs := timeIt(func() { mustQR(core.CAQR(a, opt)) })
						vals["CAQR(Tr="+itoa(tr)+")"] = gflops(canon, secs)
					}
				}
				t.Rows = append(t.Rows, RowData{Label: "m=n=" + itoa(n), Values: vals})
			}
			return t
		},
	})
}

// mustQR discards a benchmark factorization result, panicking on error:
// bench inputs are well-formed by construction, so an error is a bug.
func mustQR(_ *core.QRResult, err error) {
	if err != nil {
		panic(err)
	}
}
