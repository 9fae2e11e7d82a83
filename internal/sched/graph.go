// Package sched provides the dynamic task scheduling infrastructure the
// multithreaded CALU and CAQR algorithms run on: a task dependency graph,
// a priority-driven goroutine worker pool for real execution, and tracing
// hooks for the execution-trace experiments (paper Figs. 3-4).
//
// Tasks carry both a closure (for real execution) and a cost annotation
// (kernel class + flop count) so the exact same graph can alternatively be
// run through the deterministic virtual-time simulator in package simsched.
package sched

import (
	"fmt"
	"slices"
)

// Kind labels a task with the role it plays in the factorization, matching
// the paper's naming: P (panel / tree node), L (panel column of L), U (pivot
// + block row of U), S (trailing-matrix update). Kinds drive trace coloring
// and the priority scheme.
type Kind uint8

// Task kinds.
const (
	KindP Kind = iota // panel factorization / reduction-tree node
	KindL             // block of the panel's L factor
	KindU             // permutation + block of the U row
	KindS             // trailing matrix update
	KindOther
)

// String returns the single-letter name used in traces.
func (k Kind) String() string {
	switch k {
	case KindP:
		return "P"
	case KindL:
		return "L"
	case KindU:
		return "U"
	case KindS:
		return "S"
	default:
		return "?"
	}
}

// Class categorizes the dominant kernel of a task for the machine cost
// model: BLAS-2-bound kernels run at memory-bound rates, BLAS-3 kernels at
// near-peak rates, and small tree-reduction kernels pay a per-task latency.
type Class uint8

// Kernel classes.
const (
	ClassBLAS2     Class = iota // dgetf2/dgeqr2-style, memory bound
	ClassBLAS3                  // dgemm/dtrsm/dlarfb-style, compute bound
	ClassRecursive              // rgetf2/dgeqr3-style recursive panel kernels
	ClassSmall                  // tiny tree-node ops, latency dominated
)

// Task is one schedulable unit of work.
type Task struct {
	// ID is assigned by the Graph and identifies the task in traces.
	ID int
	// Label is a human-readable description ("S k=2 I=1 J=3").
	Label string
	// Kind is the paper's P/L/U/S role.
	Kind Kind
	// Priority orders ready tasks; higher runs first. The look-ahead
	// technique from the paper is expressed entirely through priorities.
	Priority int
	// Run executes the task's numeric work. It may be nil for graphs that
	// are only simulated.
	Run func()
	// Flops is the canonical floating-point operation count of the task,
	// and Class its kernel class; together they give the task's virtual
	// duration under a machine model.
	Flops float64
	// Class is the kernel class used by the cost model.
	Class Class
	// Rows is the dominant operand height of a panel-class task (BLAS2 or
	// recursive). Machine models distinguish cache-resident short panels
	// from streaming tall ones by this hint; zero means unknown/tall.
	Rows int
	// Out, when set, returns the buffer the task writes its result into.
	// It is evaluated only after Run returns, by the pool's PostInterceptor
	// (fault injection targets it to model silent data corruption). The
	// returned slice must alias the live output — a contiguous region whose
	// every element belongs to the task's result — not a copy.
	Out func() []float64

	succs []int
	ndeps int
}

// NumDeps returns the task's dependency count (in-degree).
func (t *Task) NumDeps() int { return t.ndeps }

// Succs returns the IDs of the tasks depending on t. The slice is shared;
// do not mutate it.
func (t *Task) Succs() []int { return t.succs }

// Graph is a task dependency DAG under construction. It is not safe for
// concurrent mutation; build it single-threaded, then execute.
type Graph struct {
	tasks []*Task
	edges int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// Add inserts t into the graph, assigns its ID and returns it.
func (g *Graph) Add(t *Task) *Task {
	t.ID = len(g.tasks)
	g.tasks = append(g.tasks, t)
	return t
}

// AddDep records that post cannot start until pre has completed. Duplicate
// edges are allowed and counted once per call (the executor decrements one
// unit per recorded edge, so duplicates stay balanced).
func (g *Graph) AddDep(pre, post *Task) {
	if pre == nil || post == nil {
		panic("sched: nil task in AddDep")
	}
	if pre == post {
		panic(fmt.Sprintf("sched: self-dependency on task %d (%s)", pre.ID, pre.Label))
	}
	pre.succs = append(pre.succs, post.ID)
	post.ndeps++
	g.edges++
}

// AddDeps records that t cannot start until every task in pres has
// completed. Nil entries are skipped and a task listed more than once in
// one call gets a single edge, so builders can pass the raw last-writer
// lists of the regions t touches.
func (g *Graph) AddDeps(t *Task, pres ...*Task) {
	for i, p := range pres {
		if p != nil && !slices.Contains(pres[:i], p) {
			g.AddDep(p, t)
		}
	}
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Edges returns the number of dependency edges.
func (g *Graph) Edges() int { return g.edges }

// Tasks returns the task list in insertion order. The slice is shared; do
// not mutate it.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) *Task { return g.tasks[id] }

// MergeGraphs combines independently built graphs into one
// submission-ready graph, so many small factorizations can ride a single
// Pool submission instead of one apiece — the service-level analogue of the
// paper's aggregation of small operations into fewer, larger ones. Workers
// drain one merged ready set, so a batch keeps them saturated where
// per-request submissions would leave them idling between tiny graphs.
//
// The parts stay fully independent inside the merged graph: no edges are
// added between them, so their tasks interleave freely under the scheduler.
// MergeGraphs takes ownership of the parts — their tasks are renumbered
// into the combined ID space and each input Graph is emptied. Per-part
// priorities are preserved unchanged, which keeps every part's internal
// look-ahead ordering intact while leaving cross-part ordering to the
// ready-set race.
func MergeGraphs(parts ...*Graph) *Graph {
	out := NewGraph()
	for _, g := range parts {
		if g == nil {
			continue
		}
		off := len(out.tasks)
		for _, t := range g.tasks {
			t.ID += off
			for i := range t.succs {
				t.succs[i] += off
			}
			out.tasks = append(out.tasks, t)
		}
		out.edges += g.edges
		g.tasks, g.edges = nil, 0
	}
	return out
}

// Validate checks the graph is acyclic and every dependency count matches
// the edge lists, returning an error describing the first problem found.
func (g *Graph) Validate() error {
	indeg := make([]int, len(g.tasks))
	for _, t := range g.tasks {
		for _, s := range t.succs {
			if s < 0 || s >= len(g.tasks) {
				return fmt.Errorf("sched: task %d has successor %d out of range", t.ID, s)
			}
			indeg[s]++
		}
	}
	queue := make([]int, 0, len(g.tasks))
	for i, t := range g.tasks {
		if indeg[i] != t.ndeps {
			return fmt.Errorf("sched: task %d dependency count %d != in-degree %d", i, t.ndeps, indeg[i])
		}
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, s := range g.tasks[id].succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(g.tasks) {
		return fmt.Errorf("sched: graph has a cycle (%d of %d tasks reachable)", seen, len(g.tasks))
	}
	return nil
}

// CriticalPath returns the length of the longest path through the graph in
// virtual seconds under the given per-task duration function, along with the
// total work (sum of all durations). These are the span and work terms of
// the classic parallelism bound work/span.
func (g *Graph) CriticalPath(duration func(*Task) float64) (span, work float64) {
	finish := make([]float64, len(g.tasks))
	indeg := make([]int, len(g.tasks))
	for _, t := range g.tasks {
		for _, s := range t.succs {
			indeg[s]++
		}
	}
	queue := make([]int, 0, len(g.tasks))
	for i := range g.tasks {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d := duration(g.tasks[id])
		work += d
		f := finish[id] + d
		finish[id] = f
		if f > span {
			span = f
		}
		for _, s := range g.tasks[id].succs {
			if f > finish[s] {
				finish[s] = f
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return span, work
}
