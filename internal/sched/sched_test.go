package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestGraphAddAssignsIDs(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{Label: "a"})
	b := g.Add(&Task{Label: "b"})
	if a.ID != 0 || b.ID != 1 || g.Len() != 2 {
		t.Fatalf("ids %d %d len %d", a.ID, b.ID, g.Len())
	}
}

func TestAddDepSelfPanics(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddDep(a, a)
}

func TestValidateDetectsCycle(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	c := g.Add(&Task{})
	g.AddDep(a, b)
	g.AddDep(b, c)
	g.AddDep(c, a)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateOKChain(t *testing.T) {
	g := NewGraph()
	var prev *Task
	for i := 0; i < 10; i++ {
		cur := g.Add(&Task{})
		if prev != nil {
			g.AddDep(prev, cur)
		}
		prev = cur
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 9 {
		t.Fatalf("edges = %d", g.Edges())
	}
}

// runOnPool executes g the way a one-shot caller does: on a private pool of
// the given size, closed afterwards. It returns the trace and the error of
// Submit (an invalid graph) or Wait (a failed task).
func runOnPool(workers int, g *Graph, opt SubmitOptions) ([]Event, error) {
	p := NewPool(workers)
	defer p.Close()
	sub, err := p.Submit(g, opt)
	if err != nil {
		return nil, err
	}
	return sub.Wait()
}

// mustRun is runOnPool for graphs that must run cleanly.
func mustRun(t *testing.T, workers int, g *Graph, opt SubmitOptions) []Event {
	t.Helper()
	events, err := runOnPool(workers, g, opt)
	if err != nil {
		t.Fatalf("run on %d workers: %v", workers, err)
	}
	return events
}

func TestRunnerRespectsDependencies(t *testing.T) {
	// Build a diamond: a -> {b, c} -> d and verify observed order.
	for _, workers := range []int{1, 2, 4, 8} {
		g := NewGraph()
		var order []int
		var mu sync.Mutex
		rec := func(id int) func() {
			return func() {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
		}
		a := g.Add(&Task{Run: rec(0)})
		b := g.Add(&Task{Run: rec(1)})
		c := g.Add(&Task{Run: rec(2)})
		d := g.Add(&Task{Run: rec(3)})
		g.AddDep(a, b)
		g.AddDep(a, c)
		g.AddDep(b, d)
		g.AddDep(c, d)
		mustRun(t, workers, g, SubmitOptions{})
		if len(order) != 4 || order[0] != 0 || order[3] != 3 {
			t.Fatalf("workers=%d order=%v", workers, order)
		}
	}
}

func TestRunnerPriorityOrderSequential(t *testing.T) {
	// With one worker, independent tasks must run in priority order
	// (ties by insertion order).
	g := NewGraph()
	var order []int
	rec := func(id int) func() { return func() { order = append(order, id) } }
	g.Add(&Task{Run: rec(0), Priority: 1})
	g.Add(&Task{Run: rec(1), Priority: 5})
	g.Add(&Task{Run: rec(2), Priority: 5})
	g.Add(&Task{Run: rec(3), Priority: 9})
	mustRun(t, 1, g, SubmitOptions{})
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}

func TestRunnerAllTasksRunOnce(t *testing.T) {
	const n = 500
	g := NewGraph()
	var count atomic.Int64
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tasks[i] = g.Add(&Task{Run: func() { count.Add(1) }})
	}
	// Random-ish layered dependencies.
	for i := 10; i < n; i++ {
		g.AddDep(tasks[i-10], tasks[i])
		if i%3 == 0 {
			g.AddDep(tasks[i-7], tasks[i])
		}
	}
	mustRun(t, 4, g, SubmitOptions{})
	if count.Load() != n {
		t.Fatalf("ran %d tasks, want %d", count.Load(), n)
	}
}

func TestRunnerTraceEvents(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 20; i++ {
		g.Add(&Task{Kind: KindS, Run: func() {}})
	}
	events := mustRun(t, 3, g, SubmitOptions{Trace: true})
	if len(events) != 20 {
		t.Fatalf("got %d events", len(events))
	}
	seen := map[int]bool{}
	for _, e := range events {
		if e.Worker < 0 || e.Worker >= 3 {
			t.Fatalf("bad worker %d", e.Worker)
		}
		if e.End < e.Start {
			t.Fatalf("end before start: %+v", e)
		}
		if seen[e.TaskID] {
			t.Fatalf("task %d traced twice", e.TaskID)
		}
		seen[e.TaskID] = true
	}
}

func TestRunnerEmptyGraph(t *testing.T) {
	if ev := mustRun(t, 2, NewGraph(), SubmitOptions{Trace: true}); ev != nil {
		t.Fatalf("expected nil events, got %v", ev)
	}
}

// TestRunnerInvalidGraphPanics: a malformed (cyclic) graph is rejected by
// Submit with an error before any task runs.
func TestRunnerInvalidGraphPanics(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	g.AddDep(a, b)
	g.AddDep(b, a)
	if _, err := runOnPool(1, g, SubmitOptions{}); err == nil {
		t.Fatal("cyclic graph accepted by Submit")
	}
}

func TestCriticalPath(t *testing.T) {
	// Chain of 3 unit tasks plus one independent: span 3, work 4.
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	c := g.Add(&Task{})
	g.Add(&Task{})
	g.AddDep(a, b)
	g.AddDep(b, c)
	span, work := g.CriticalPath(func(*Task) float64 { return 1 })
	if span != 3 || work != 4 {
		t.Fatalf("span=%v work=%v", span, work)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindP: "P", KindL: "L", KindU: "U", KindS: "S", KindOther: "?"} {
		if k.String() != want {
			t.Fatalf("Kind(%d) = %q", k, k.String())
		}
	}
}

// Property: for random layered DAGs, every topological constraint holds in
// the observed completion order.
func TestRunnerTopologicalProperty(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		w := int(workers)%6 + 1
		g := NewGraph()
		const n = 60
		tasks := make([]*Task, n)
		pos := make([]int64, n) // completion sequence numbers
		var ctr atomic.Int64
		for i := 0; i < n; i++ {
			i := i
			tasks[i] = g.Add(&Task{Run: func() { pos[i] = ctr.Add(1) }})
		}
		s := uint64(seed)
		edges := [][2]int{}
		for i := 1; i < n; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i))
			g.AddDep(tasks[j], tasks[i])
			edges = append(edges, [2]int{j, i})
		}
		if _, err := runOnPool(w, g, SubmitOptions{}); err != nil {
			return false
		}
		for _, e := range edges {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerTaskPanicPropagates(t *testing.T) {
	g := NewGraph()
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		g.Add(&Task{Label: "w", Run: func() {
			if i == 7 {
				panic("numeric bug")
			}
			ran.Add(1)
		}})
	}
	if _, err := runOnPool(4, g, SubmitOptions{}); err == nil {
		t.Fatal("expected the task panic to reach the caller as Wait's error")
	}
}

func TestRunnerPanicStopsRemainingWork(t *testing.T) {
	// With one worker and a first task that panics, no later task must run.
	g := NewGraph()
	var ran atomic.Int64
	g.Add(&Task{Priority: 10, Run: func() { panic("boom") }})
	for i := 0; i < 5; i++ {
		g.Add(&Task{Run: func() { ran.Add(1) }})
	}
	if _, err := runOnPool(1, g, SubmitOptions{}); err == nil {
		t.Fatal("expected the task panic as Wait's error")
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran after the panic", ran.Load())
	}
}
