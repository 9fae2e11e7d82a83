package bench

import (
	"fmt"
	"math"
)

// The paper's published numbers (GFlop/s), transcribed from Tables I-III.
// These are the quantitative ground truth the calibrated model is judged
// against; the parity experiment prints model-vs-paper side by side. Each
// row follows the column order of the matching sweep (table1-table3), so
// one index picks both a published value and the entry that models it.

// paperTable1 is Table I: LU of square matrices on the 8-core Intel
// machine. Columns: MKL dgetrf, PLASMA dgetrf, CALU Tr=1, 2, 4, 8.
var paperTable1 = map[int][]float64{
	1000:  {38.4, 17.8, 15.7, 15.5, 15.1, 13.6},
	2000:  {45.3, 32.6, 26.5, 31.2, 32.9, 30.3},
	3000:  {48.8, 38.8, 33.7, 43.2, 43.6, 40.7},
	4000:  {53.1, 42.5, 38.9, 50.5, 49.9, 47.5},
	5000:  {55.6, 42.3, 42.1, 54.2, 54.1, 51.7},
	10000: {61.39, 48.3, 52.3, 63.5, 62.7, 61.4},
}

// paperTable2 is Table II: LU of square matrices on the 16-core AMD
// machine. Columns: ACML dgetrf, PLASMA dgetrf, CALU Tr=1, 2, 4, 8, 16.
var paperTable2 = map[int][]float64{
	1000: {16.2, 10.0, 10.8, 10.4, 10.2, 11.5, 11.8},
	2000: {29.6, 25.9, 21.3, 22.6, 28.3, 26.8, 22.1},
	3000: {31.0, 32.2, 27.8, 30.5, 34.4, 34.3, 28.9},
	4000: {26.3, 35.2, 34.5, 36.4, 37.9, 37.8, 34.1},
	5000: {26.8, 38.0, 38.6, 39.5, 39.7, 39.2, 38.9},
}

// paperTable3 is Table III: QR of square matrices on the 8-core Intel
// machine. Columns: MKL dgeqrf, PLASMA dgeqrf, CAQR Tr=1, 2, 4, 8.
var paperTable3 = map[int][]float64{
	1000: {41.0, 27.3, 4.3, 11.8, 22.6, 17.6},
	2000: {52.1, 41.3, 26.2, 33.3, 37.5, 37.5},
	3000: {50.3, 46.5, 22.1, 40.2, 43.1, 40.9},
	4000: {49.4, 48.4, 38.1, 45.0, 46.0, 44.8},
	5000: {54.5, 49.5, 40.9, 46.7, 47.7, 46.7},
}

// parityExperiment prints the modeled GFlop/s against the paper's published
// numbers for Tables I-III and reports per-table mean relative deviation.
// Each point is one column of table1-3 at one order, modeled by the same
// catalogue entry on the same machine.
func parityExperiment(cfg Config) *Table {
	t := &Table{
		ID:       "parity",
		Title:    "Model vs paper: published GFlop/s side by side",
		PaperRef: "Tables I-III",
		Unit:     "GFlop/s (paper -> model), deviation as fraction",
		Columns:  []string{"paper", "model", "rel-dev"},
		Notes:    "Published values transcribed from the paper's Tables I-III. The model is calibrated on four anchors only (see internal/machine); everything else is prediction.",
	}
	type column struct {
		name string
		i    int // position in the sweep's algs and in the paper's rows
	}
	// A representative subset of each table (full sweeps are table1-3).
	picks := []struct {
		tag   string
		sw    *sweep
		paper map[int][]float64
		ns    []int
		cols  []column
	}{
		{"T1", table1, paperTable1, []int{1000, 5000, 10000}, []column{{"MKL", 0}, {"CALU2", 3}}},
		{"T2", table2, paperTable2, []int{1000, 3000, 5000}, []column{{"ACML", 0}, {"CALU4", 4}}},
		{"T3", table3, paperTable3, []int{1000, 3000, 5000}, []column{{"PLASMA", 1}, {"CAQR4", 4}}},
	}
	totalDev, points := 0.0, 0
	for _, p := range picks {
		for _, n := range p.ns {
			for _, c := range p.cols {
				label := fmt.Sprintf("%s %s n=%d", p.tag, c.name, n)
				progress(cfg, "parity: %s", label)
				paper := p.paper[n][c.i]
				model := p.sw.algs[c.i].modeled(n, n, p.sw.on)
				dev := math.Abs(model-paper) / paper
				totalDev += dev
				points++
				t.Rows = append(t.Rows, RowData{Label: label, Values: map[string]float64{
					"paper": paper, "model": model, "rel-dev": dev,
				}})
			}
		}
	}
	t.Rows = append(t.Rows, RowData{Label: "MEAN", Values: map[string]float64{
		"rel-dev": totalDev / float64(points),
	}})
	return t
}
