package bench

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tslu"
)

// Ablation experiments for the design choices DESIGN.md calls out. All run
// modeled (the questions are about task-graph structure, which the
// simulator answers deterministically at paper scale); Measured mode uses
// reduced sizes through the same graphs.

type shape struct {
	label string
	m, n  int
}

func ablationShapes(cfg Config) []shape {
	if cfg.Mode == Measured {
		return []shape{
			{"tall 20000x200", 20000, 200},
			{"square 1000", 1000, 1000},
		}
	}
	return []shape{
		{"tall 1e5x200", 100000, 200},
		{"tall 1e5x1000", 100000, 1000},
		{"tall 1e6x100", 1000000, 100},
		{"square 5000", 5000, 5000},
	}
}

// ablationTree compares binary vs flat (height-1) reduction trees for both
// CALU and CAQR panels.
func ablationTree(cfg Config) *Table {
	t := &Table{
		ID:       "ablation-tree",
		Title:    "Reduction tree shape: binary vs flat (height 1)",
		PaperRef: "Sections II-III",
		Unit:     "GFlop/s",
		Columns: []string{
			"CALU-binary", "CALU-flat", "CALU-hybrid",
			"CAQR-binary", "CAQR-flat", "CAQR-hybrid",
		},
	}
	mach := machine.Intel8()
	for _, s := range ablationShapes(cfg) {
		progress(cfg, "ablation-tree: %s", s.label)
		vals := map[string]float64{}
		for _, tree := range []tslu.Tree{tslu.Binary, tslu.Flat, tslu.Hybrid} {
			opt := core.Options{BlockSize: paperB(s.n), PanelThreads: 8, Tree: tree, Lookahead: true}
			vals["CALU-"+tree.String()] = caluModelGF(s.m, s.n, opt, mach)
			vals["CAQR-"+tree.String()] = caqrModelGF(s.m, s.n, opt, mach)
		}
		t.Rows = append(t.Rows, RowData{Label: s.label, Values: vals})
	}
	t.Notes = "The flat tree merges all Tr candidate sets in one (larger) GEPP/QR; the binary tree uses log2(Tr) smaller rounds; hybrid (flat groups, then binary — Hadri et al., cited in the paper's conclusion) sits between."
	return t
}

// ablationLookahead turns the column-ordered look-ahead priorities off.
func ablationLookahead(cfg Config) *Table {
	t := &Table{
		ID:       "ablation-lookahead",
		Title:    "Look-ahead priorities on vs off",
		PaperRef: "Section III task-scheduling discussion",
		Unit:     "GFlop/s",
		Columns:  []string{"lookahead", "no-lookahead"},
	}
	mach := machine.Intel8()
	for _, s := range ablationShapes(cfg) {
		progress(cfg, "ablation-lookahead: %s", s.label)
		on := core.Options{BlockSize: paperB(s.n), PanelThreads: 8, Lookahead: true}
		off := on
		off.Lookahead = false
		t.Rows = append(t.Rows, RowData{Label: s.label, Values: map[string]float64{
			"lookahead":    caluModelGF(s.m, s.n, on, mach),
			"no-lookahead": caluModelGF(s.m, s.n, off, mach),
		}})
	}
	t.Notes = "Without look-ahead, ready tasks are ordered by iteration, so the next panel waits behind all of the previous iteration's updates."
	return t
}

// ablationBlockSize sweeps the panel width b.
func ablationBlockSize(cfg Config) *Table {
	t := &Table{
		ID:       "ablation-blocksize",
		Title:    "Panel block size b sweep (CALU, Tr=8)",
		PaperRef: "Section IV parameter discussion",
		Unit:     "GFlop/s",
	}
	bs := []int{25, 50, 100, 200}
	for _, b := range bs {
		t.Columns = append(t.Columns, "b="+itoa(b))
	}
	mach := machine.Intel8()
	for _, s := range ablationShapes(cfg) {
		progress(cfg, "ablation-blocksize: %s", s.label)
		vals := map[string]float64{}
		for _, b := range bs {
			opt := core.Options{BlockSize: min(b, s.n), PanelThreads: 8, Lookahead: true}
			vals["b="+itoa(b)] = caluModelGF(s.m, s.n, opt, mach)
		}
		t.Rows = append(t.Rows, RowData{Label: s.label, Values: vals})
	}
	t.Notes = "The paper settles on b = min(100, n) on the Intel machine: small b starves BLAS-3 granularity, large b serializes the panel."
	return t
}

// ablationTwoLevel evaluates the paper's future-work two-level blocking
// B = ColsPerTask * b for the trailing update.
func ablationTwoLevel(cfg Config) *Table {
	t := &Table{
		ID:       "ablation-twolevel",
		Title:    "Two-level blocking: trailing-update columns per task (B = c*b)",
		PaperRef: "Section V future work",
		Unit:     "GFlop/s",
	}
	cs := []int{1, 2, 4, 8}
	for _, c := range cs {
		t.Columns = append(t.Columns, "c="+itoa(c))
	}
	mach := machine.Intel8()
	for _, s := range ablationShapes(cfg) {
		progress(cfg, "ablation-twolevel: %s", s.label)
		vals := map[string]float64{}
		for _, c := range cs {
			opt := core.Options{BlockSize: paperB(s.n), PanelThreads: 8, Lookahead: true, ColsPerTask: c}
			vals["c="+itoa(c)] = caluModelGF(s.m, s.n, opt, mach)
		}
		t.Rows = append(t.Rows, RowData{Label: s.label, Values: vals})
	}
	t.Notes = "Grouping c block columns per U/S task cuts task count (less scheduling overhead, bigger BLAS-3 calls) at the cost of coarser parallelism — the trade-off the paper's conclusion proposes to explore."
	return t
}

// ablationTr sweeps the panel parallelism knob on its own, holding the
// machine fixed — the paper's central parameter.
func ablationTr(cfg Config) *Table {
	t := &Table{
		ID:       "ablation-tr",
		Title:    "Panel parallelism Tr sweep (CALU, 8-core Intel)",
		PaperRef: "Figures 3-6",
		Unit:     "GFlop/s",
	}
	trs := []int{1, 2, 4, 8, 16}
	for _, tr := range trs {
		t.Columns = append(t.Columns, "Tr="+itoa(tr))
	}
	mach := machine.Intel8()
	for _, s := range ablationShapes(cfg) {
		progress(cfg, "ablation-tr: %s", s.label)
		vals := map[string]float64{}
		for _, tr := range trs {
			opt := core.Options{BlockSize: paperB(s.n), PanelThreads: tr, Lookahead: true}
			vals["Tr="+itoa(tr)] = caluModelGF(s.m, s.n, opt, mach)
		}
		t.Rows = append(t.Rows, RowData{Label: s.label, Values: vals})
	}
	t.Notes = "Tr beyond the core count adds tournament rounds without extra parallelism; Tr below it leaves the panel on the critical path — the effect Figs. 3-4 visualize."
	return t
}

func init() {
	register(Experiment{ID: "ablation-tree", Title: "binary vs flat reduction tree", PaperRef: "Sections II-III", Run: ablationTree})
	register(Experiment{ID: "ablation-lookahead", Title: "look-ahead priorities on/off", PaperRef: "Section III", Run: ablationLookahead})
	register(Experiment{ID: "ablation-blocksize", Title: "panel block size sweep", PaperRef: "Section IV", Run: ablationBlockSize})
	register(Experiment{ID: "ablation-twolevel", Title: "two-level trailing blocking (future work)", PaperRef: "Section V", Run: ablationTwoLevel})
	register(Experiment{ID: "ablation-tr", Title: "panel parallelism sweep", PaperRef: "Figures 3-6", Run: ablationTr})
}

// ablationStructured models the CAQR improvement the paper's conclusion
// anticipates: dense stacked tree merges (the paper's implementation)
// versus structured triangle-on-triangle kernels (TTQRT, as PLASMA's
// follow-up work used).
func ablationStructured(cfg Config) *Table {
	t := &Table{
		ID:       "ablation-structured",
		Title:    "CAQR tree kernels: dense stacked QR vs structured TTQRT",
		PaperRef: "Section V",
		Unit:     "GFlop/s",
		Columns:  []string{"dense-tree", "structured-tree"},
	}
	mach := machine.Intel8()
	for _, s := range ablationShapes(cfg) {
		progress(cfg, "ablation-structured: %s", s.label)
		base := core.Options{BlockSize: paperB(s.n), PanelThreads: 8, Tree: tslu.Binary, Lookahead: true}
		st := base
		st.StructuredTree = true
		t.Rows = append(t.Rows, RowData{Label: s.label, Values: map[string]float64{
			"dense-tree":      caqrModelGF(s.m, s.n, base, mach),
			"structured-tree": caqrModelGF(s.m, s.n, st, mach),
		}})
	}
	t.Notes = "The structured kernel cuts each binary-tree merge from ~(10/3)b^3 to ~b^3 flops and each pair update from 8b^2c to 3b^2c, addressing the paper's note that CAQR performance was still being improved."
	return t
}

func init() {
	register(Experiment{ID: "ablation-structured", Title: "CAQR dense vs structured tree kernels", PaperRef: "Section V", Run: ablationStructured})
}
