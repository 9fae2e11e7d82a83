package bench

import (
	"repro/internal/sched"
	"repro/internal/tslu"
)

// panelSyncs returns the number of synchronization points one panel
// factorization needs when its work is shared by tr threads.
//
// For the classic algorithm (tree-less GEPP), each of the b columns needs a
// pivot search across all participating threads: b synchronizations. For
// ca-pivoting, only the reduction-tree levels synchronize.
func panelSyncs(b, tr int, tree tslu.Tree, classic bool) int {
	if tr <= 1 {
		return 0 // a single thread never waits
	}
	if classic {
		return b
	}
	steps := tslu.PlanReduction(tr, tree)
	return steps[len(steps)-1].Level // the root
}

// graphMetrics summarizes the parallel structure of a task graph.
type graphMetrics struct {
	// tasks and edges are the graph size.
	tasks, edges int
	// spanFlops is the critical-path flop count.
	spanFlops float64
	// maxParallelism is total work over spanFlops, the bound on achievable
	// speedup (Brent's theorem).
	maxParallelism float64
}

// analyze computes the metrics of a task graph.
func analyze(g *sched.Graph) graphMetrics {
	spanF, workF := g.CriticalPath(func(t *sched.Task) float64 { return t.Flops })
	m := graphMetrics{
		tasks:     g.Len(),
		edges:     g.Edges(),
		spanFlops: spanF,
	}
	if spanF > 0 {
		m.maxParallelism = workF / spanF
	}
	return m
}

// commExperiment makes the paper's Sections I-II claims measurable:
//
//   - A classic partial-pivoting panel factorization synchronizes once per
//     column (each pivot search is a reduction across the threads sharing
//     the panel): b synchronization points per panel.
//   - TSLU/TSQR synchronize once per reduction-tree level: log2(Tr) points
//     for a binary tree, 1 for a flat tree, 1 + log2(Tr/4) for the hybrid.
//
// It tabulates both the closed-form counts (panelSyncs) and the size, span
// and parallelism of the actual CALU and fork-join vendor task graphs
// (analyze), so the theory is checked against the implementation.
func commExperiment(cfg Config) *Table {
	t := &Table{
		ID:       "comm",
		Title:    "Synchronization and critical-path structure, CALU vs classic",
		PaperRef: "Sections I-II",
		Unit:     "counts (syncs, tasks, edges) and flops (span)",
		Columns: []string{
			"panel-syncs-classic", "panel-syncs-binary", "panel-syncs-flat", "panel-syncs-hybrid",
			"CALU-tasks", "CALU-edges", "vendor-tasks", "vendor-edges",
			"span-Mflops-CALU", "span-Mflops-vendor", "parallelism-CALU", "parallelism-vendor",
		},
	}
	for _, r := range ablationRows(cfg) {
		progress(cfg, "comm: %s", r.label)
		b := min(100, r.n) // the paper's panel width
		caluM := analyze(calu(8).graph(r.m, r.n, r.on))
		vendorM := analyze(getrf.graph(r.m, r.n, r.on))
		t.Rows = append(t.Rows, RowData{Label: r.label, Values: map[string]float64{
			"panel-syncs-classic": float64(panelSyncs(b, 8, tslu.Binary, true)),
			"panel-syncs-binary":  float64(panelSyncs(b, 8, tslu.Binary, false)),
			"panel-syncs-flat":    float64(panelSyncs(b, 8, tslu.Flat, false)),
			"panel-syncs-hybrid":  float64(panelSyncs(b, 8, tslu.Hybrid, false)),
			"CALU-tasks":          float64(caluM.tasks),
			"CALU-edges":          float64(caluM.edges),
			"vendor-tasks":        float64(vendorM.tasks),
			"vendor-edges":        float64(vendorM.edges),
			"span-Mflops-CALU":    caluM.spanFlops / 1e6,
			"span-Mflops-vendor":  vendorM.spanFlops / 1e6,
			"parallelism-CALU":    caluM.maxParallelism,
			"parallelism-vendor":  vendorM.maxParallelism,
		}})
	}
	t.Notes = "Panel syncs: classic GEPP synchronizes once per column (b); ca-pivoting once per tree level (log2 Tr binary, 1 flat). CALU trades a few extra tournament tasks per panel for removing the per-column synchronization inside the panel. Tasks, edges, span and parallelism come from the actual task graphs (Brent bound)."
	return t
}
