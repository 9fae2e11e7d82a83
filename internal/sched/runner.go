package sched

import (
	"fmt"
	"time"
)

// Event records one task execution for tracing (paper Figs. 3-4).
type Event struct {
	TaskID int
	Worker int
	Start  time.Duration // relative to the run start
	End    time.Duration
}

// taskHeap is a max-heap over task priority; ties break toward lower ID,
// which keeps execution order deterministic for equal priorities and favors
// earlier-created (earlier-iteration) tasks as the paper's look-ahead does.
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].ID < h[j].ID
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// runTask executes one task, converting a panic into a returned error. A
// panic that already carries an error — the library packages' typed
// preconditions, e.g. panic(fmt.Errorf("%w: ...", blas.ErrShape, ...)) —
// is wrapped with %w so errors.Is/As keep matching the sentinel through
// Submission.Wait.
//
// When the pool carries an Interceptor it runs first, under the same
// recover barrier: an interceptor error fails the task without running it,
// and an interceptor panic is captured like a task panic. A PostInterceptor
// runs after Run returns, still under the barrier, and only for tasks that
// declare an output buffer — it sees the task's output before any successor
// is enqueued, which is what makes injected output corruption a
// deterministic dataflow event rather than a race.
func runTask(t *Task, ic Interceptor, post PostInterceptor, worker int) (captured error) {
	// calint:ignore hotpath-alloc -- the recover barrier is one closure per task, amortized by the task body it protects
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok {
				// calint:ignore hotpath-alloc -- cold path: runs only after a task panicked
				captured = fmt.Errorf("sched: task %d (%s) panicked: %w", t.ID, t.Label, err)
			} else {
				// calint:ignore hotpath-alloc -- cold path: runs only after a task panicked
				captured = fmt.Errorf("sched: task %d (%s) panicked: %v", t.ID, t.Label, p)
			}
		}
	}()
	if ic != nil {
		if err := ic(TaskInfo{Label: t.Label, Kind: t.Kind, Worker: worker}); err != nil {
			// calint:ignore hotpath-alloc -- cold path: runs only when the interceptor rejects the task
			return fmt.Errorf("sched: task %d (%s) failed: %w", t.ID, t.Label, err)
		}
	}
	t.Run()
	if post != nil && t.Out != nil {
		post(TaskInfo{Label: t.Label, Kind: t.Kind, Worker: worker, Output: t.Out})
	}
	return nil
}
