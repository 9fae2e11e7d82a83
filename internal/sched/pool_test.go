package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// chainGraph builds a linear chain of n tasks, each appending its index to
// out under mu, so execution order within the submission is checkable.
func chainGraph(n int, mu *sync.Mutex, out *[]int) *Graph {
	g := NewGraph()
	var prev *Task
	for i := 0; i < n; i++ {
		i := i
		t := g.Add(&Task{Label: "t", Run: func() {
			mu.Lock()
			*out = append(*out, i)
			mu.Unlock()
		}})
		if prev != nil {
			g.AddDep(prev, t)
		}
		prev = t
	}
	return g
}

func TestPoolConcurrentSubmissions(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	const subs, chain = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < subs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var mu sync.Mutex
			var order []int
			sub, err := p.Submit(chainGraph(chain, &mu, &order), SubmitOptions{})
			if err != nil {
				t.Errorf("submit %d: %v", s, err)
				return
			}
			if _, err := sub.Wait(); err != nil {
				t.Errorf("wait %d: %v", s, err)
				return
			}
			if len(order) != chain {
				t.Errorf("submission %d ran %d of %d tasks", s, len(order), chain)
				return
			}
			for i, v := range order {
				if v != i {
					t.Errorf("submission %d: chain order broken at %d: %v", s, i, v)
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

func TestPoolPanicFailsOnlyItsSubmission(t *testing.T) {
	p := NewPool(3)
	defer p.Close()

	// A graph whose middle task panics; its successor must not run.
	var after atomic.Int32
	bad := NewGraph()
	t1 := bad.Add(&Task{Label: "ok", Run: func() {}})
	t2 := bad.Add(&Task{Label: "boom", Run: func() { panic("numerical bug") }})
	t3 := bad.Add(&Task{Label: "after", Run: func() { after.Add(1) }})
	bad.AddDep(t1, t2)
	bad.AddDep(t2, t3)

	var mu sync.Mutex
	var order []int
	good := chainGraph(30, &mu, &order)

	badSub, err := p.Submit(bad, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	goodSub, err := p.Submit(good, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badSub.Wait(); err == nil {
		t.Fatal("panicking submission must report an error")
	}
	if after.Load() != 0 {
		t.Fatal("successor of a panicked task ran")
	}
	if _, err := goodSub.Wait(); err != nil {
		t.Fatalf("healthy submission failed: %v", err)
	}
	if len(order) != 30 {
		t.Fatalf("healthy submission ran %d of 30 tasks", len(order))
	}

	// The pool must remain usable after the failure.
	var mu2 sync.Mutex
	var order2 []int
	sub, err := p.Submit(chainGraph(5, &mu2, &order2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Wait(); err != nil {
		t.Fatalf("pool unusable after failure: %v", err)
	}
	if len(order2) != 5 {
		t.Fatalf("post-failure submission ran %d of 5 tasks", len(order2))
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	if _, err := p.Submit(NewGraph(), SubmitOptions{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
}

func TestPoolEmptyGraphCompletesImmediately(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	sub, err := p.Submit(NewGraph(), SubmitOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	events, err := sub.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if events != nil {
		t.Fatalf("empty graph produced events: %v", events)
	}
}

func TestPoolTraceCoversEveryTaskOnce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var mu sync.Mutex
	var order []int
	g := chainGraph(20, &mu, &order)
	sub, err := p.Submit(g, SubmitOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	events, err := sub.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != g.Len() {
		t.Fatalf("%d events for %d tasks", len(events), g.Len())
	}
	seen := map[int]bool{}
	for _, e := range events {
		if seen[e.TaskID] {
			t.Fatalf("task %d traced twice", e.TaskID)
		}
		seen[e.TaskID] = true
		if e.Worker < 0 || e.Worker >= p.Workers() {
			t.Fatalf("bad worker %d", e.Worker)
		}
		if e.End < e.Start {
			t.Fatal("end before start")
		}
	}
}

func TestPoolPriorityOrderSingleWorker(t *testing.T) {
	// With one worker and no dependencies, tasks must run in strict
	// priority order (ties toward lower ID).
	p := NewPool(1)
	defer p.Close()
	var mu sync.Mutex
	var order []int
	g := NewGraph()
	prios := []int{3, 9, 1, 9, 5}
	for i, pr := range prios {
		i := i
		g.Add(&Task{Priority: pr, Run: func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}})
	}
	sub, err := p.Submit(g, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}
