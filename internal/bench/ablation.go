package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tslu"
)

// Ablation experiments for the design choices DESIGN.md calls out. All run
// modeled (the questions are about task-graph structure, which the
// simulator answers deterministically at paper scale); Measured mode uses
// reduced sizes through the same graphs.

// ablationRows are the ablation shapes on the 8-core Intel machine.
func ablationRows(cfg Config) []row {
	if cfg.Mode == Measured {
		return []row{
			{label: "tall 20000x200", m: 20000, n: 200, on: intel},
			{label: "square 1000", m: 1000, n: 1000, on: intel},
		}
	}
	return []row{
		{label: "tall 1e5x200", m: 100000, n: 200, on: intel},
		{label: "tall 1e5x1000", m: 100000, n: 1000, on: intel},
		{label: "tall 1e6x100", m: 1000000, n: 100, on: intel},
		{label: "square 5000", m: 5000, n: 5000, on: intel},
	}
}

// ablation fills t with algs, CALU/CAQR variants (Tr = 8 unless the
// variant sets it), modeled over the ablation rows in either mode.
func ablation(cfg Config, t *Table, algs ...alg) *Table {
	rows := ablationRows(cfg)
	t.Unit = "GFlop/s"
	cfg.Mode = Modeled
	t.fill(cfg, rows, algs...)
	return t
}

// ablationTree compares binary vs flat (height-1) reduction trees for both
// CALU and CAQR panels.
func ablationTree(cfg Config) *Table {
	var lu, qr []alg
	for _, tree := range []tslu.Tree{tslu.Binary, tslu.Flat, tslu.Hybrid} {
		set := func(o *core.Options, _ int) { o.Tree = tree }
		lu = append(lu, caluAlg("CALU-"+tree.String(), set))
		qr = append(qr, caqrAlg("CAQR-"+tree.String(), set))
	}
	return ablation(cfg, &Table{
		ID:       "ablation-tree",
		Title:    "Reduction tree shape: binary vs flat (height 1)",
		PaperRef: "Sections II-III",
		Notes:    "The flat tree merges all Tr candidate sets in one (larger) GEPP/QR; the binary tree uses log2(Tr) smaller rounds; hybrid (flat groups, then binary — Hadri et al., cited in the paper's conclusion) sits between.",
	}, append(lu, qr...)...)
}

// ablationLookahead turns the column-ordered look-ahead priorities off.
func ablationLookahead(cfg Config) *Table {
	return ablation(cfg, &Table{
		ID:       "ablation-lookahead",
		Title:    "Look-ahead priorities on vs off",
		PaperRef: "Section III task-scheduling discussion",
		Notes:    "Without look-ahead, ready tasks are ordered by iteration, so the next panel waits behind all of the previous iteration's updates.",
	}, caluAlg("lookahead", nil), caluAlg("no-lookahead", func(o *core.Options, _ int) { o.Lookahead = false }))
}

// sweepCALU is one CALU variant per value, each setting it with set.
func sweepCALU(format string, values []int, set func(o *core.Options, n, v int)) []alg {
	var algs []alg
	for _, v := range values {
		algs = append(algs, caluAlg(fmt.Sprintf(format, v), func(o *core.Options, n int) { set(o, n, v) }))
	}
	return algs
}

// ablationBlockSize sweeps the panel width b.
func ablationBlockSize(cfg Config) *Table {
	return ablation(cfg, &Table{
		ID:       "ablation-blocksize",
		Title:    "Panel block size b sweep (CALU, Tr=8)",
		PaperRef: "Section IV parameter discussion",
		Notes:    "The paper settles on b = min(100, n) on the Intel machine: small b starves BLAS-3 granularity, large b serializes the panel.",
	}, sweepCALU("b=%d", []int{25, 50, 100, 200}, func(o *core.Options, n, b int) { o.BlockSize = min(b, n) })...)
}

// ablationTwoLevel evaluates the paper's future-work two-level blocking
// B = ColsPerTask * b for the trailing update.
func ablationTwoLevel(cfg Config) *Table {
	return ablation(cfg, &Table{
		ID:       "ablation-twolevel",
		Title:    "Two-level blocking: trailing-update columns per task (B = c*b)",
		PaperRef: "Section V future work",
		Notes:    "Grouping c block columns per U/S task cuts task count (less scheduling overhead, bigger BLAS-3 calls) at the cost of coarser parallelism — the trade-off the paper's conclusion proposes to explore.",
	}, sweepCALU("c=%d", []int{1, 2, 4, 8}, func(o *core.Options, _, c int) { o.ColsPerTask = c })...)
}

// ablationTr sweeps the panel parallelism knob on its own, holding the
// machine fixed — the paper's central parameter.
func ablationTr(cfg Config) *Table {
	return ablation(cfg, &Table{
		ID:       "ablation-tr",
		Title:    "Panel parallelism Tr sweep (CALU, 8-core Intel)",
		PaperRef: "Figures 3-6",
		Notes:    "Tr beyond the core count adds tournament rounds without extra parallelism; Tr below it leaves the panel on the critical path — the effect Figs. 3-4 visualize.",
	}, sweepCALU("Tr=%d", []int{1, 2, 4, 8, 16}, func(o *core.Options, _, tr int) { o.PanelThreads = tr })...)
}

// ablationStructured models the CAQR improvement the paper's conclusion
// anticipates: dense stacked tree merges (the paper's implementation)
// versus structured triangle-on-triangle kernels (TTQRT, as PLASMA's
// follow-up work used).
func ablationStructured(cfg Config) *Table {
	return ablation(cfg, &Table{
		ID:       "ablation-structured",
		Title:    "CAQR tree kernels: dense stacked QR vs structured TTQRT",
		PaperRef: "Section V",
		Notes:    "The structured kernel cuts each binary-tree merge from ~(10/3)b^3 to ~b^3 flops and each pair update from 8b^2c to 3b^2c, addressing the paper's note that CAQR performance was still being improved.",
	}, caqrAlg("dense-tree", nil), caqrAlg("structured-tree", func(o *core.Options, _ int) { o.StructuredTree = true }))
}
