package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

// sweep is one of the paper's GFlop/s comparisons (Figs. 5-8, Tables
// I-III): every alg over a shape sweep, modeled on a paper machine at the
// paper's sizes or timed on this host at reduced sizes.
type sweep struct {
	id, title, ref string
	on             platform
	// m and mHost fix a tall sweep's height at paper scale and on this
	// host; a square sweep leaves them 0 and lists its paper-scale orders
	// in ns.
	m, mHost int
	ns       []int
	// seed generates the measured m x n input.
	seed  func(m, n int) int64
	algs  []alg
	notes string
	// measuredNote is appended to notes in measured mode.
	measuredNote string
}

func (s *sweep) experiment() Experiment {
	return Experiment{ID: s.id, Title: s.title, PaperRef: s.ref, Run: s.run}
}

func (s *sweep) run(cfg Config) *Table {
	t := &Table{ID: s.id, Title: s.title, PaperRef: s.ref, Unit: "GFlop/s", Notes: s.notes}
	// All tall sweeps share their widths, and all measured squares their
	// orders.
	m, ns := s.m, s.ns
	switch {
	case m == 0 && cfg.Mode == Measured:
		ns = []int{256, 512, 768}
	case m > 0 && cfg.Mode == Measured:
		m, ns = s.mHost, []int{10, 25, 50, 100, 200}
	case m > 0:
		ns = []int{10, 25, 50, 100, 150, 200, 500, 1000}
	}
	var rows []row
	for _, n := range ns {
		r := row{label: fmt.Sprintf("m=n=%d", n), m: n, n: n, on: s.on}
		if m > 0 {
			r.label, r.m = fmt.Sprintf("%dx%d", m, n), m
		}
		r.seed = s.seed(r.m, n)
		rows = append(rows, r)
	}
	t.fill(cfg, rows, s.algs...)
	if cfg.Mode == Measured && s.measuredNote != "" {
		t.Notes += "\n" + s.measuredNote
	}
	return t
}

func tallLUNotes(vendor string) string {
	return "dgetrf/dgetf2 are the " + vendor + " stand-ins; PLASMA is the tiled incremental-pivoting LU (tile=200)."
}

const reducedScaleNote = "measured at reduced scale on the reproduction host; parallel speedups require GOMAXPROCS > 1"

var (
	fig5 = &sweep{id: "fig5", title: "LU of tall-skinny matrices, m=10^5, 8-core Intel", ref: "Figure 5",
		on: intel, m: 100000, mHost: 20000, seed: func(m, n int) int64 { return int64(m + n) },
		algs:  []alg{calu(8), calu(4), getrf, getf2, plasmaLU},
		notes: tallLUNotes("MKL"), measuredNote: reducedScaleNote}
	fig6 = &sweep{id: "fig6", title: "LU of tall-skinny matrices, m=10^6, 8-core Intel", ref: "Figure 6",
		on: intel, m: 1000000, mHost: 50000, seed: fig5.seed,
		algs:  []alg{calu(8), calu(4), getrf, getf2, plasmaLU},
		notes: tallLUNotes("MKL"), measuredNote: reducedScaleNote}
	fig7 = &sweep{id: "fig7", title: "LU of tall-skinny matrices, m=10^5, 16-core AMD", ref: "Figure 7",
		on: amd, m: 100000, mHost: 20000, seed: fig5.seed,
		algs:  []alg{calu(16), calu(8), getrf, getf2, plasmaLU},
		notes: tallLUNotes("ACML"), measuredNote: reducedScaleNote}
	table1 = &sweep{id: "table1", title: "LU of square matrices, 8-core Intel", ref: "Table I",
		on: intel, ns: []int{1000, 2000, 3000, 4000, 5000, 10000}, seed: func(_, n int) int64 { return int64(n) },
		algs: []alg{getrf.as("MKL"), plasmaLU, calu(1), calu(2), calu(4), calu(8)}}
	table2 = &sweep{id: "table2", title: "LU of square matrices, 16-core AMD", ref: "Table II",
		on: amd, ns: []int{1000, 2000, 3000, 4000, 5000}, seed: table1.seed,
		algs: []alg{getrf.as("ACML"), plasmaLU, calu(1), calu(2), calu(4), calu(8), calu(16)}}
	fig8 = &sweep{id: "fig8", title: "QR of tall-skinny matrices, m=10^5, 8-core Intel", ref: "Figure 8",
		on: intel, m: 100000, mHost: 20000, seed: func(m, n int) int64 { return int64(m - n) },
		algs:  []alg{tsqr, caqr(4), geqrf, geqr2, plasmaQR},
		notes: "TSQR = single-panel CAQR (b=n, binary tree); CAQR uses b=min(100,n), Tr=4, flat (height-1) tree as in the paper."}
	table3 = &sweep{id: "table3", title: "QR of square matrices, 8-core Intel", ref: "Table III",
		on: intel, ns: []int{1000, 2000, 3000, 4000, 5000}, seed: func(_, n int) int64 { return int64(n + 1) },
		algs: []alg{geqrf.as("MKL"), plasmaQR, caqr(1), caqr(2), caqr(4), caqr(8)}}
)

// scalingExperiment sweeps the virtual core count for a fixed workload —
// the strong-scaling view the paper's per-machine tables imply. It is
// modeled in either mode; measured mode only shrinks the shapes.
func scalingExperiment(cfg Config) *Table {
	t := &Table{
		ID:       "scaling",
		Title:    "Strong scaling of CALU vs vendor model (Intel profile, cores swept)",
		PaperRef: "Sections III-IV",
		Unit:     "GFlop/s",
		Notes:    "On tall-skinny matrices CALU scales with cores (the panel parallelizes, Tr = cores) while the vendor model plateaus at its serial panel; on squares both scale until the update saturates.",
	}
	mTall, nTall, nSq := 1000000, 100, 5000
	if cfg.Mode == Measured {
		mTall, nSq = 100000, 2000
	}
	var tall, square []row
	for _, p := range []int{1, 2, 4, 8, 16} {
		on := platform{machine.Intel8().WithCores(p), p, p}
		label := fmt.Sprintf("cores=%d", p)
		tall = append(tall, row{label: label, m: mTall, n: nTall, on: on})
		square = append(square, row{label: label, m: nSq, n: nSq, on: on})
	}
	cfg.Mode = Modeled
	t.fill(cfg, tall, caluAlg("CALU-tall", nil), getrf.as("vendor-tall"))
	t.fill(cfg, square, caluAlg("CALU-square", func(o *core.Options, _ int) {
		o.PanelThreads = min(o.PanelThreads, 4)
	}), getrf.as("vendor-square"))
	return t
}
