package bench

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/matrix"
)

// distExperiment measures actual per-process message counts of the
// distributed-memory panel factorizations (the paper's Section II setting)
// on the mini message-passing runtime: tournament pivoting vs classic
// partial pivoting, across process counts.
func distExperiment(cfg Config) *Table {
	t := &Table{
		ID:       "dist",
		Title:    "Distributed panel factorization: messages per process (measured on the message-passing runtime)",
		PaperRef: "Section II",
		Unit:     "messages (max over processes)",
		Columns:  []string{"TSLU", "TSQR", "GEPP", "GEPP/TSLU", "CALU/panel", "CAQR/panel"},
	}
	m, b := 4096, 32
	if cfg.Mode == Measured {
		m = 1024
	}
	for _, p := range []int{2, 4, 8, 16} {
		progress(cfg, "dist: P=%d", p)
		panel := matrix.Random(m, b, int64(p))

		wCA := dist.NewWorld(p)
		dist.TSLU(wCA, panel.Clone(), p)
		ca := float64(wCA.MaxMessagesPerRank())

		wQR := dist.NewWorld(p)
		dist.TSQR(wQR, panel.Clone(), p)
		qr := float64(wQR.MaxMessagesPerRank())

		wPP := dist.NewWorld(p)
		dist.GEPP(wPP, panel.Clone(), p)
		pp := float64(wPP.MaxMessagesPerRank())

		// The full distributed factorizations, amortized per panel.
		nFull := 4 * b
		wFull := dist.NewWorld(p)
		dist.CALU(wFull, matrix.Random(m, nFull, int64(p+1)), b)
		fullLU := float64(wFull.MaxMessagesPerRank()) / float64(nFull/b)
		wQRF := dist.NewWorld(p)
		dist.CAQR(wQRF, matrix.Random(m, nFull, int64(p+2)), b)
		fullQR := float64(wQRF.MaxMessagesPerRank()) / float64(nFull/b)

		t.Rows = append(t.Rows, RowData{Label: fmt.Sprintf("P=%d", p), Values: map[string]float64{
			"TSLU": ca, "TSQR": qr, "GEPP": pp, "GEPP/TSLU": pp / ca,
			"CALU/panel": fullLU, "CAQR/panel": fullQR,
		}})
	}
	t.Notes = fmt.Sprintf("Counts are real messages sent on the simulated network for one m x b panel (b=%d). TSLU/TSQR pay O(log P): tree sends plus broadcast forwards. GEPP pays O(b log P): a max-reduction and pivot-row broadcast per column. CALU/panel and CAQR/panel are the full distributed factorizations amortized per panel (CALU: tournament + row swaps + composite/U-row broadcasts; CAQR: tree edges each shipping an R triangle and a trailing carrier block).", b)
	return t
}
