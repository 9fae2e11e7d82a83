package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateChain builds a chain of n tasks counting executions in ran. Task 0
// additionally closes started and then blocks on release, so tests can
// cancel the submission while it is provably mid-run.
func gateChain(n int, ran *atomic.Int32, started, release chan struct{}) *Graph {
	g := NewGraph()
	var prev *Task
	for i := 0; i < n; i++ {
		i := i
		t := g.Add(&Task{Label: "g", Run: func() {
			if i == 0 {
				close(started)
				<-release
			}
			ran.Add(1)
		}})
		if prev != nil {
			g.AddDep(prev, t)
		}
		prev = t
	}
	return g
}

// waitFailed blocks until the submission has been marked failed (the
// watcher has observed the context), so a test can deterministically order
// "cancel observed" before "running task finishes".
func waitFailed(t *testing.T, p *Pool, s *Submission) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		failed := s.failed != nil
		p.mu.Unlock()
		if failed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("submission never observed cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitCtxPreCancelledRejects(t *testing.T) {
	p := NewPool(2)
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	g := NewGraph()
	g.Add(&Task{Run: func() { ran.Add(1) }})
	if _, err := p.SubmitCtx(ctx, g, SubmitOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx with cancelled ctx = %v, want context.Canceled", err)
	} else if !errors.Is(err, ErrCancelled) {
		t.Fatalf("error %v does not wrap ErrCancelled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("task ran despite pre-cancelled context")
	}

	// The pool must be untouched: a normal submission still completes.
	sub, err := p.Submit(g, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatalf("follow-up submission ran %d tasks, want 1", ran.Load())
	}
}

func TestSubmitCtxCancelMidRunDrains(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	const n = 20
	sub, err := p.SubmitCtx(ctx, gateChain(n, &ran, started, release), SubmitOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	waitFailed(t, p, sub) // cancel observed while task 0 still runs
	close(release)

	events, werr := sub.Wait()
	if !errors.Is(werr, context.Canceled) || !errors.Is(werr, ErrCancelled) {
		t.Fatalf("Wait = %v, want wrapped context.Canceled and ErrCancelled", werr)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d tasks ran after mid-run cancel, want 1", got)
	}
	// Drained tasks must leave no trace events: only task 0 executed.
	if len(events) != 1 {
		t.Fatalf("%d trace events for 1 executed task", len(events))
	}
}

func TestSubmitCtxDeadlineExpiry(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	var ran atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	sub, err := p.SubmitCtx(ctx, gateChain(10, &ran, started, release), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitFailed(t, p, sub) // the deadline fires while task 0 blocks
	close(release)
	if _, werr := sub.Wait(); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("Wait after deadline = %v, want context.DeadlineExceeded", werr)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d tasks ran past the deadline, want 1", got)
	}
}

// TestSubmitCtxCancelOneOfManyConcurrent is the -race stress test of the
// isolation guarantee: cancelling one submission must not perturb
// concurrent healthy submissions on the same pool, and the pool must stay
// reusable afterwards.
func TestSubmitCtxCancelOneOfManyConcurrent(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	const rounds = 6
	for round := 0; round < rounds; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var victimRan atomic.Int32
		started := make(chan struct{})
		release := make(chan struct{})
		victim, err := p.SubmitCtx(ctx, gateChain(50, &victimRan, started, release), SubmitOptions{Trace: true})
		if err != nil {
			t.Fatal(err)
		}

		const healthy, chain = 4, 40
		var wg sync.WaitGroup
		for s := 0; s < healthy; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				var mu sync.Mutex
				var order []int
				sub, err := p.Submit(chainGraph(chain, &mu, &order), SubmitOptions{})
				if err != nil {
					t.Errorf("healthy submit: %v", err)
					return
				}
				if _, err := sub.Wait(); err != nil {
					t.Errorf("healthy wait: %v", err)
					return
				}
				for i, v := range order {
					if v != i {
						t.Errorf("healthy chain order broken at %d", i)
						return
					}
				}
			}(s)
		}

		<-started
		cancel()
		waitFailed(t, p, victim)
		close(release)
		events, werr := victim.Wait()
		if !errors.Is(werr, context.Canceled) {
			t.Fatalf("round %d: victim Wait = %v, want context.Canceled", round, werr)
		}
		if got := victimRan.Load(); int(got) != len(events) {
			t.Fatalf("round %d: %d tasks ran but %d trace events", round, got, len(events))
		}
		wg.Wait()
		cancel()
	}
}

func TestPoolCloseWithTimeoutCancelsStragglers(t *testing.T) {
	p := NewPool(1)
	var ran atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	sub, err := p.Submit(gateChain(8, &ran, started, release), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Task 0 is parked on release, so the pool cannot drain in time.
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(release)
	}()
	if err := p.CloseWithTimeout(5 * time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseWithTimeout = %v, want context.DeadlineExceeded", err)
	}
	if _, werr := sub.Wait(); !errors.Is(werr, context.DeadlineExceeded) || !errors.Is(werr, ErrCancelled) {
		t.Fatalf("straggler Wait = %v, want wrapped DeadlineExceeded and ErrCancelled", werr)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d tasks ran after timed-out close, want 1", got)
	}
	if _, err := p.Submit(NewGraph(), SubmitOptions{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after CloseWithTimeout = %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseWithTimeoutCleanDrain(t *testing.T) {
	p := NewPool(2)
	var mu sync.Mutex
	var order []int
	sub, err := p.Submit(chainGraph(10, &mu, &order), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CloseWithTimeout(5 * time.Second); err != nil {
		t.Fatalf("clean CloseWithTimeout = %v, want nil", err)
	}
	if _, werr := sub.Wait(); werr != nil {
		t.Fatalf("drained submission failed: %v", werr)
	}
	if len(order) != 10 {
		t.Fatalf("drained submission ran %d of 10 tasks", len(order))
	}
}

// TestDrainedTasksLeaveNoTraceEvents is the regression test for the trace
// bug: tasks skipped while draining a failed submission used to record an
// Event, so traces claimed tasks ran that never did.
func TestDrainedTasksLeaveNoTraceEvents(t *testing.T) {
	p := NewPool(2)
	defer p.Close()

	// A chain where task 3 panics: tasks 0-3 execute, 4-9 are drained.
	g := NewGraph()
	var prev *Task
	for i := 0; i < 10; i++ {
		i := i
		t_ := g.Add(&Task{Label: "c", Run: func() {
			if i == 3 {
				panic("induced failure")
			}
		}})
		if prev != nil {
			g.AddDep(prev, t_)
		}
		prev = t_
	}
	sub, err := p.Submit(g, SubmitOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	events, werr := sub.Wait()
	if werr == nil {
		t.Fatal("panicking submission must report an error")
	}
	if len(events) != 4 {
		t.Fatalf("%d trace events, want 4 (tasks 0-3 only)", len(events))
	}
	for _, e := range events {
		if e.TaskID > 3 {
			t.Fatalf("trace claims drained task %d ran", e.TaskID)
		}
	}
}

// TestTakeReleasesPoppedSlot checks that taking a ready task does not pin
// it: the heap's re-slice keeps its backing array alive for the
// submission's lifetime, so the vacated slot must be nil'd for the task to
// become collectable.
func TestTakeReleasesPoppedSlot(t *testing.T) {
	t1 := &Task{ID: 1, Priority: 9}
	t2 := &Task{ID: 2, Priority: 1}
	backing := taskHeap{t1, t2}
	s := &Submission{ready: backing}
	p := &Pool{workers: 1, metrics: newPoolMetrics(1)}
	if got := s.take(p); got != t1 {
		t.Fatalf("took task %v, want %v", got, t1)
	}
	if backing[1] != nil {
		t.Fatal("popped slot still references a task; backing array pins it")
	}
	if len(s.ready) != 1 || s.ready[0] != t2 {
		t.Fatalf("ready heap corrupted: %v", s.ready)
	}
}
