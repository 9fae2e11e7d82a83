package factor

// trace.go exposes the critical-path analysis (internal/trace) on traced
// factorization handles, so CLIs and services can report the paper's
// Fig. 3-4 quantities — chain length, panel time on the path, per-worker
// idle — without importing internal packages.

import (
	"fmt"
	"io"

	"repro/internal/sched"
	"repro/internal/trace"
)

// CriticalPathSummary is the dependency-chain analysis of one traced
// factorization: the longest chain through the executed task graph weighted
// by measured durations, and where each worker's time went. Produced by
// LUFactorization.CriticalPath / QRFactorization.CriticalPath; all times in
// seconds.
type CriticalPathSummary struct {
	// PathTasks labels the chain's tasks in execution order ("P k=0(P)").
	PathTasks []string
	// Length is the chain's summed duration — the lower bound no worker
	// count can beat. Makespan is the observed run length, and Fraction is
	// Length/Makespan (1.0 = fully serialized, 1/workers = perfect scaling).
	Length   float64
	Makespan float64
	Fraction float64
	// OnPathByKind and OffPathByKind split task time by kind ("P", "L",
	// "U", "S") according to chain membership: panel time on the path is
	// the paper's Fig. 3 bottleneck.
	OnPathByKind  map[string]float64
	OffPathByKind map[string]float64
	// WorkerBusy[w] and WorkerIdle[w] attribute each worker's share of the
	// makespan.
	WorkerBusy []float64
	WorkerIdle []float64
}

// summarize converts the internal analysis into the public form.
func summarize(events []sched.Event, g *sched.Graph, workers int) (*CriticalPathSummary, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("factor: no trace events; set Options.Trace to enable critical-path analysis")
	}
	tr := trace.FromSched(events, g, workers)
	cp := trace.AnalyzeCriticalPath(tr, g)
	s := &CriticalPathSummary{
		PathTasks:     cp.PathLabels(g),
		Length:        cp.Length,
		Makespan:      cp.Makespan,
		Fraction:      cp.Fraction,
		OnPathByKind:  map[string]float64{},
		OffPathByKind: map[string]float64{},
		WorkerBusy:    cp.WorkerBusy,
		WorkerIdle:    cp.WorkerIdle,
	}
	for k, v := range cp.OnPath {
		s.OnPathByKind[k.String()] = v
	}
	for k, v := range cp.OffPath {
		s.OffPathByKind[k.String()] = v
	}
	return s, nil
}

// CriticalPath analyzes the factorization's executed task graph. It
// requires a trace (Options.Trace) and errors without one.
func (f *LUFactorization) CriticalPath() (*CriticalPathSummary, error) {
	return summarize(f.res.Events, f.res.Graph, f.workers)
}

// CriticalPath analyzes the factorization's executed task graph. It
// requires a trace (Options.Trace) and errors without one.
func (f *QRFactorization) CriticalPath() (*CriticalPathSummary, error) {
	return summarize(f.res.Events, f.res.Graph, f.workers)
}

// Report renders the summary as the CLI text block: one line of chain
// totals, then per-worker idle attribution.
func (s *CriticalPathSummary) Report(w io.Writer) {
	fmt.Fprintf(w, "critical path: %.6fs over %d tasks (makespan %.6fs, fraction %.3f)\n",
		s.Length, len(s.PathTasks), s.Makespan, s.Fraction)
	for _, kind := range []string{"P", "L", "U", "S"} {
		on, off := s.OnPathByKind[kind], s.OffPathByKind[kind]
		if on == 0 && off == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s: on-path %.6fs off-path %.6fs\n", kind, on, off)
	}
	for wk := range s.WorkerBusy {
		fmt.Fprintf(w, "  worker %d: busy %.6fs idle %.6fs\n", wk, s.WorkerBusy[wk], s.WorkerIdle[wk])
	}
}
