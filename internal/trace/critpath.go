package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sched"
)

// critpath.go turns the paper's Figs. 3-4 from pictures into numbers: the
// longest dependency chain through an executed graph, how much of each
// kind's time sits on that chain, and where each worker's idle time went.
// The critical path bounds any schedule from below — a makespan close to
// the path length means the scheduler is not the problem, the chain is —
// which is exactly the argument CALU/CAQR make against right-looking
// factorizations with their long panel chains.

// CriticalPath is the result of analyzing one executed (or simulated)
// trace against its dependency graph.
type CriticalPath struct {
	// Path is the longest-duration dependency chain, as task IDs in
	// execution order.
	Path []int
	// Length is the summed duration (seconds) of the tasks on Path; no
	// schedule on any number of workers can finish the graph faster.
	Length float64
	// Makespan is the observed end of the last span.
	Makespan float64
	// Fraction is Length / Makespan: 1.0 means the run was completely
	// serialized on the chain; 1/W means perfect W-worker utilization.
	Fraction float64
	// OnPath and OffPath split total task time (seconds) by kind according
	// to chain membership. A large OnPath[KindP] is the paper's Fig. 3
	// panel bottleneck; CALU's tree shifts that mass off the path.
	OnPath  map[sched.Kind]float64
	OffPath map[sched.Kind]float64
	// WorkerBusy[w] and WorkerIdle[w] attribute each worker's share of the
	// makespan (seconds): busy is its summed span time, idle the remainder.
	WorkerBusy []float64
	WorkerIdle []float64
}

// AnalyzeCriticalPath computes the longest dependency chain of g weighted
// by the measured span durations in t, plus the per-kind and per-worker
// time attribution. Tasks with no span (never executed — e.g. drained after
// a failure, or Run-less bookkeeping nodes) contribute zero duration but
// still propagate dependencies. An empty trace yields a zero analysis.
func AnalyzeCriticalPath(t *Trace, g *sched.Graph) *CriticalPath {
	cp := &CriticalPath{
		OnPath:     map[sched.Kind]float64{},
		OffPath:    map[sched.Kind]float64{},
		WorkerBusy: make([]float64, t.Workers),
		WorkerIdle: make([]float64, t.Workers),
		Makespan:   t.Makespan,
	}
	n := g.Len()
	if n == 0 {
		return cp
	}

	dur := make([]float64, n)
	for _, sp := range t.Spans {
		if sp.TaskID >= 0 && sp.TaskID < n {
			dur[sp.TaskID] += sp.End - sp.Start
		}
	}

	// Longest path by dynamic programming over a Kahn topological order:
	// finish[i] = dur[i] + max over predecessors of finish[pred], tracking
	// the argmax to walk the chain back from the global maximum.
	finish := make([]float64, n)
	via := make([]int, n)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		via[i] = -1
		indeg[i] = g.Task(i).NumDeps()
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			finish[i] = dur[i]
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, succ := range g.Task(i).Succs() {
			if f := finish[i] + dur[succ]; f > finish[succ] ||
				(f == finish[succ] && via[succ] == -1) {
				finish[succ] = f
				via[succ] = i
			}
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}

	end := 0
	for i := 1; i < n; i++ {
		if finish[i] > finish[end] {
			end = i
		}
	}
	cp.Length = finish[end]
	for i := end; i >= 0; i = via[i] {
		cp.Path = append(cp.Path, i)
		if via[i] == -1 {
			break
		}
	}
	for l, r := 0, len(cp.Path)-1; l < r; l, r = l+1, r-1 {
		cp.Path[l], cp.Path[r] = cp.Path[r], cp.Path[l]
	}
	if cp.Makespan > 0 {
		cp.Fraction = cp.Length / cp.Makespan
	}

	onPath := make([]bool, n)
	for _, id := range cp.Path {
		onPath[id] = true
	}
	for _, sp := range t.Spans {
		d := sp.End - sp.Start
		if sp.TaskID >= 0 && sp.TaskID < n && onPath[sp.TaskID] {
			cp.OnPath[sp.Kind] += d
		} else {
			cp.OffPath[sp.Kind] += d
		}
		if sp.Worker >= 0 && sp.Worker < t.Workers {
			cp.WorkerBusy[sp.Worker] += d
		}
	}
	for w := range cp.WorkerIdle {
		cp.WorkerIdle[w] = cp.Makespan - cp.WorkerBusy[w]
	}
	return cp
}

// kindOrder fixes the report ordering for the per-kind maps.
var kindOrder = []sched.Kind{sched.KindP, sched.KindL, sched.KindU, sched.KindS, sched.KindOther}

// Report renders the analysis as the traceview/CLI text block: chain
// length vs makespan, the per-kind on/off-path split, and per-worker idle
// attribution.
func (cp *CriticalPath) Report(w io.Writer) {
	fmt.Fprintf(w, "critical path: %.6fs over %d tasks (makespan %.6fs, fraction %.3f)\n",
		cp.Length, len(cp.Path), cp.Makespan, cp.Fraction)
	fmt.Fprintf(w, "  %-5s %12s %12s\n", "kind", "on-path", "off-path")
	for _, k := range kindOrder {
		on, off := cp.OnPath[k], cp.OffPath[k]
		if on == 0 && off == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-5s %11.6fs %11.6fs\n", k, on, off)
	}
	for wk := range cp.WorkerBusy {
		frac := 0.0
		if cp.Makespan > 0 {
			frac = cp.WorkerIdle[wk] / cp.Makespan
		}
		fmt.Fprintf(w, "  worker %d: busy %.6fs idle %.6fs (%.1f%% idle)\n",
			wk, cp.WorkerBusy[wk], cp.WorkerIdle[wk], 100*frac)
	}
}

// PathLabels returns the chain as "label(kind)" strings for compact
// logging.
func (cp *CriticalPath) PathLabels(g *sched.Graph) []string {
	out := make([]string, len(cp.Path))
	for i, id := range cp.Path {
		task := g.Task(id)
		label := strings.TrimSpace(task.Label)
		if label == "" {
			label = fmt.Sprintf("task%d", id)
		}
		out[i] = fmt.Sprintf("%s(%s)", label, task.Kind)
	}
	return out
}

// IdleTotal sums idle time (seconds) across workers.
func (cp *CriticalPath) IdleTotal() float64 {
	var total float64
	for _, d := range cp.WorkerIdle {
		total += d
	}
	return total
}
