package bench

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/tslu"
)

func TestPanelSyncsFormulas(t *testing.T) {
	// The headline claim: O(log Tr) vs b synchronizations per panel.
	cases := []struct {
		b, tr   int
		tree    tslu.Tree
		classic bool
		want    int
	}{
		{100, 8, tslu.Binary, true, 100}, // classic GEPP: one per column
		{100, 8, tslu.Binary, false, 3},  // log2(8)
		{100, 16, tslu.Binary, false, 4},
		{100, 8, tslu.Flat, false, 1},    // single merge round
		{100, 16, tslu.Hybrid, false, 3}, // 1 flat + log2(4)
		{100, 1, tslu.Binary, false, 0},  // single thread: no syncs
		{100, 1, tslu.Binary, true, 0},
	}
	for _, c := range cases {
		if got := panelSyncs(c.b, c.tr, c.tree, c.classic); got != c.want {
			t.Errorf("panelSyncs(b=%d, tr=%d, %v, classic=%v) = %d want %d",
				c.b, c.tr, c.tree, c.classic, got, c.want)
		}
	}
}

func TestAnalyzeCALUVsVendor(t *testing.T) {
	// On a tall-skinny matrix, CALU's critical path (in flops) must be far
	// shorter than the fork-join vendor model's, because the panel is
	// parallelized.
	m, n := 100000, 200
	calu := analyze(core.BuildCALUGraph(m, n, core.Options{
		BlockSize: 100, PanelThreads: 8, Lookahead: true,
	}))
	vendor := analyze(baseline.BuildGETRFGraph(m, n, 64, 8))
	if calu.spanFlops >= vendor.spanFlops {
		t.Errorf("CALU span %g not below vendor span %g", calu.spanFlops, vendor.spanFlops)
	}
	if calu.maxParallelism <= vendor.maxParallelism {
		t.Errorf("CALU parallelism %g not above vendor %g", calu.maxParallelism, vendor.maxParallelism)
	}
	if calu.tasks <= vendor.tasks {
		t.Errorf("CALU should have more (finer) tasks: %d vs %d", calu.tasks, vendor.tasks)
	}
}

func TestAnalyzeTrImprovesSpan(t *testing.T) {
	// Increasing Tr shortens the panel critical path on tall-skinny shapes.
	span := func(tr int) float64 {
		g := core.BuildCALUGraph(1000000, 100, core.Options{
			BlockSize: 100, PanelThreads: tr, Lookahead: true,
		})
		return analyze(g).spanFlops
	}
	s1, s4, s8 := span(1), span(4), span(8)
	if !(s8 < s4 && s4 < s1) {
		t.Errorf("span not decreasing with Tr: %g %g %g", s1, s4, s8)
	}
	// With a binary tree the span shrinks roughly like 1/Tr plus the
	// logarithmic merge chain; demand at least 3x from Tr=1 to Tr=8.
	if s1/s8 < 3 {
		t.Errorf("Tr=8 span reduction only %.2fx", s1/s8)
	}
}
