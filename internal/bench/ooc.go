package bench

import (
	"fmt"

	"repro/internal/ooc"
)

// oocExperiment quantifies the sequential (memory-hierarchy) side of
// Section II: words moved between fast and slow memory for one panel, by
// algorithm, simulated on an LRU cache.
func oocExperiment(cfg Config) *Table {
	t := &Table{
		ID:       "ooc",
		Title:    "Sequential communication: words moved per m x 100 panel (LRU cache = 10% of panel)",
		PaperRef: "Section II",
		Unit:     "Mwords moved",
		Columns:  []string{"TSLU-flat", "GEPP-columns", "GEPP-blocked(nb=25)", "GEPP/TSLU"},
	}
	b, blocks := 100, 8
	ms := []int{100000, 400000, 1000000}
	if cfg.Mode == Measured {
		ms = []int{100000}
	}
	for _, m := range ms {
		progress(cfg, "ooc: m=%d", m)
		rows := m / blocks
		cache := int64(m) * int64(b) / 10

		ts := ooc.NewCache(cache)
		ooc.PanelTraceTSLU(ts, m, b, rows)
		pp := ooc.NewCache(cache)
		ooc.PanelTraceGEPP(pp, m, b, rows)
		bl := ooc.NewCache(cache)
		ooc.PanelTraceBlockedGEPP(bl, m, b, rows, 25)

		t.Rows = append(t.Rows, RowData{Label: fmt.Sprintf("m=%d", m), Values: map[string]float64{
			"TSLU-flat":           float64(ts.Moved) / 1e6,
			"GEPP-columns":        float64(pp.Moved) / 1e6,
			"GEPP-blocked(nb=25)": float64(bl.Moved) / 1e6,
			"GEPP/TSLU":           float64(pp.Moved) / float64(ts.Moved),
		}})
	}
	t.Notes = "TSLU with the flat tree streams the panel once (compulsory traffic); column-wise GEPP rescans it per column (~b passes); blocked GEPP lands in between (~b/nb passes). This is the paper's sequential-optimality claim."
	return t
}
