package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simsched"
	"repro/internal/trace"
)

// traceExperiment reproduces Figs. 3-4: the execution trace of CALU on a
// tall-skinny matrix with Tr=1 (panel serialized, idle bubbles) vs Tr=8
// (panel parallel, cores busy).
func traceExperiment(cfg Config, id string, tr int) *Table {
	t := &Table{
		ID:       id,
		Title:    fmt.Sprintf("CALU execution trace, 10^5 x 1000, b=100, Tr=%d, 8-core Intel", tr),
		PaperRef: "Figure " + map[string]string{"fig3": "3", "fig4": "4"}[id],
		Unit:     "fraction of core-time",
		Columns:  []string{"P", "L", "U", "S", "idle"},
	}
	var tra *trace.Trace
	if cfg.Mode == Modeled {
		progress(cfg, "%s: simulating CALU trace Tr=%d", id, tr)
		g := calu(tr).graph(100000, 1000, intel)
		res := simsched.Run(g, intel.mach)
		tra = trace.FromSim(res.Events, g, intel.cores)
	} else {
		progress(cfg, "%s: measuring CALU trace Tr=%d", id, tr)
		workers := workersOrCPU(cfg)
		a := matrix.Random(4000, 400, 77)
		opt := core.Options{BlockSize: 100, PanelThreads: tr, Workers: workers, Trace: true, Lookahead: true}
		res, err := core.CALU(a, opt)
		if err != nil {
			panic(err)
		}
		tra = trace.FromSched(res.Events, res.Graph, workers)
	}
	stats := tra.Stats()
	t.Rows = append(t.Rows, RowData{Label: "share", Values: map[string]float64{
		"P":    stats.BusyByKind[sched.KindP],
		"L":    stats.BusyByKind[sched.KindL],
		"U":    stats.BusyByKind[sched.KindU],
		"S":    stats.BusyByKind[sched.KindS],
		"idle": stats.Idle,
	}})
	var gantt strings.Builder
	tra.Gantt(&gantt, 100)
	t.Notes = "P = panel/tournament tasks, L = panel L blocks, U = pivoting + U row, S = trailing update, '.' = idle:\n" + gantt.String()
	return t
}
