// Package bench regenerates every table and figure of the paper's
// evaluation section (Figs. 3-8, Tables I-III), plus the stability study
// and the ablations called out in DESIGN.md.
//
// Each experiment runs in one of two modes:
//
//   - Modeled (default): the algorithms' task graphs are built at the
//     paper's original sizes and executed in virtual time on the calibrated
//     machine models (package simsched + machine). Deterministic, fast, and
//     structurally faithful: the graphs are produced by the same builders
//     the real code uses.
//   - Measured: the real numeric factorizations of Figs. 3-8 and Tables
//     I-III run on scaled-down sizes and are wall-clock timed. Useful to
//     validate the implementations end-to-end on the reproduction host;
//     absolute numbers depend on the host and on GOMAXPROCS. The ablations,
//     scaling and comm stay modeled at reduced shapes, parity ignores the
//     mode, and stability, dist and ooc keep their method at reduced sizes.
//
// The GFlop/s comparisons share one catalogue of the compared algorithms
// (catalogue.go): each is defined once by its task graph, its real run and
// its canonical flop count, which the tables report GFlop/s against,
// exactly as the paper does.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
)

// Mode selects how an experiment obtains its numbers.
type Mode int

// Modes.
const (
	Modeled Mode = iota
	Measured
)

// String names the mode.
func (m Mode) String() string {
	if m == Measured {
		return "measured"
	}
	return "modeled"
}

// Config parameterizes an experiment run.
type Config struct {
	// Mode selects modeled (paper-scale, virtual time) or measured
	// (scaled-down, wall clock).
	Mode Mode
	// Workers is the goroutine count for measured runs; 0 uses NumCPU.
	Workers int
	// Verbose writers get progress lines; nil silences them.
	Verbose io.Writer
}

// Table is one reproduced table or figure (figures are reported as the
// table of series values that would be plotted).
type Table struct {
	// ID is the experiment identifier (fig5, table1, ...).
	ID string
	// Title describes the experiment.
	Title string
	// PaperRef cites the paper artifact this reproduces.
	PaperRef string
	// Columns are the value column names, in display order.
	Columns []string
	// Rows are the data rows, in display order.
	Rows []RowData
	// Unit labels the values (GFlop/s, seconds, growth, ...).
	Unit string
	// Notes holds free-form output such as Gantt charts or commentary.
	Notes string
}

// RowData is one table row.
type RowData struct {
	Label  string
	Values map[string]float64
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "(reproduces %s; values in %s)\n", t.PaperRef, t.Unit)
	// Column widths.
	labelW := 5
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
		if widths[i] < 8 {
			widths[i] = 8
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(w, " %*s", widths[i], c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, r.Label)
		for i, c := range t.Columns {
			v, ok := r.Values[c]
			if !ok {
				fmt.Fprintf(w, " %*s", widths[i], "-")
				continue
			}
			fmt.Fprintf(w, " %*.2f", widths[i], v)
		}
		fmt.Fprintln(w)
	}
	if t.Notes != "" {
		fmt.Fprintln(w, t.Notes)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered reproduction target.
type Experiment struct {
	// ID is the key used on the command line (fig5, table1, ablation-tree).
	ID string
	// Title is a human-readable summary.
	Title string
	// PaperRef cites the reproduced artifact.
	PaperRef string
	// Run produces the table.
	Run func(cfg Config) *Table
}

// registry lists the experiments in report order.
var registry = []Experiment{
	{ID: "ablation-tree", Title: "binary vs flat reduction tree", PaperRef: "Sections II-III", Run: ablationTree},
	{ID: "ablation-lookahead", Title: "look-ahead priorities on/off", PaperRef: "Section III", Run: ablationLookahead},
	{ID: "ablation-blocksize", Title: "panel block size sweep", PaperRef: "Section IV", Run: ablationBlockSize},
	{ID: "ablation-twolevel", Title: "two-level trailing blocking (future work)", PaperRef: "Section V", Run: ablationTwoLevel},
	{ID: "ablation-tr", Title: "panel parallelism sweep", PaperRef: "Figures 3-6", Run: ablationTr},
	{ID: "ablation-structured", Title: "CAQR dense vs structured tree kernels", PaperRef: "Section V", Run: ablationStructured},
	{ID: "comm", Title: "synchronization structure and critical paths", PaperRef: "Sections I-II", Run: commExperiment},
	{ID: "dist", Title: "distributed-memory message counts", PaperRef: "Section II", Run: distExperiment},
	fig5.experiment(),
	fig6.experiment(),
	fig7.experiment(),
	table1.experiment(),
	table2.experiment(),
	{ID: "ooc", Title: "sequential memory-hierarchy traffic", PaperRef: "Section II", Run: oocExperiment},
	{ID: "scaling", Title: "strong scaling across virtual cores", PaperRef: "Sections III-IV", Run: scalingExperiment},
	{ID: "parity", Title: "model vs published numbers, side by side", PaperRef: "Tables I-III", Run: parityExperiment},
	fig8.experiment(),
	table3.experiment(),
	{ID: "stability", Title: "ca-pivoting stability vs GEPP and incremental pivoting", PaperRef: "Section II", Run: stabilityExperiment},
	{ID: "stability-sweep", Title: "growth-factor distributions, GEPP vs CALU", PaperRef: "Section II", Run: stabilitySweep},
	{ID: "fig3", Title: "CALU trace with Tr=1: panel-induced idle time", PaperRef: "Figure 3", Run: func(cfg Config) *Table { return traceExperiment(cfg, "fig3", 1) }},
	{ID: "fig4", Title: "CALU trace with Tr=8: parallel panel removes idle time", PaperRef: "Figure 4", Run: func(cfg Config) *Table { return traceExperiment(cfg, "fig4", 8) }},
}

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func workersOrCPU(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.NumCPU()
}

// progress emits a progress line when cfg.Verbose is set.
func progress(cfg Config, format string, args ...any) {
	if cfg.Verbose != nil {
		fmt.Fprintf(cfg.Verbose, format+"\n", args...)
	}
}

// gflops converts canonical flops and seconds to GFlop/s.
func gflops(canonical, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return canonical / seconds / 1e9
}

// WriteCSV emits the table as CSV (label plus one column per series).
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "label")
	for _, c := range t.Columns {
		fmt.Fprintf(w, ",%s", strings.ReplaceAll(c, ",", ";"))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s", strings.ReplaceAll(r.Label, ",", ";"))
		for _, c := range t.Columns {
			if v, ok := r.Values[c]; ok {
				fmt.Fprintf(w, ",%g", v)
			} else {
				fmt.Fprintf(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}
