package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPoolClosed is returned by Pool.Submit after Close.
var ErrPoolClosed = errors.New("sched: pool is closed")

// ErrCancelled marks a submission abandoned before all of its tasks ran:
// its context was cancelled or expired, or the pool was shut down with
// CloseWithTimeout while the submission was still in flight. Errors
// returned by Submission.Wait on such paths wrap both ErrCancelled and the
// underlying context error, so callers can test either
// errors.Is(err, sched.ErrCancelled) or errors.Is(err, context.Canceled) /
// context.DeadlineExceeded.
var ErrCancelled = errors.New("sched: submission cancelled")

// TaskInfo describes one task execution to an Interceptor: enough identity
// (label, kind, worker) for deterministic fault targeting, without exposing
// the task's closure or graph internals.
type TaskInfo struct {
	// Label is the task's human-readable identity ("S k=2 i=1 j=3").
	Label string
	// Kind is the paper's P/L/U/S role.
	Kind Kind
	// Worker is the index of the pool goroutine about to run the task.
	Worker int
	// Output exposes the task's declared output buffer (Task.Out), when the
	// task declares one. It is non-nil only for post-run hooks
	// (PostInterceptor); pre-run interceptors always see nil, since the
	// buffer's contents are not this task's yet.
	Output func() []float64
}

// Interceptor is a per-task hook invoked by the pool immediately before a
// task's Run. A non-nil return marks the task failed exactly as if its Run
// had returned that error; a panic inside the interceptor is captured by
// the same recover barrier as a task panic. Interceptors exist for fault
// injection in chaos tests (see internal/fault); production pools leave it
// unset and pay a single nil-check per task.
type Interceptor func(TaskInfo) error

// PostInterceptor is a per-task hook invoked immediately after a task's Run
// returns, under the same recover barrier, and only for tasks that declare
// an output buffer (Task.Out non-nil). It exists so fault injection can
// corrupt a task's freshly written output deterministically — successors
// have not been enqueued yet, so whatever the hook writes is exactly what
// the rest of the graph consumes. Production pools leave it unset.
type PostInterceptor func(TaskInfo)

// SubmitOptions configures one graph submission.
type SubmitOptions struct {
	// Trace records an Event per task, retrievable from Submission.Wait.
	Trace bool
}

// Pool is a persistent executor: a fixed set of worker goroutines that
// lives for the process (or service) lifetime and accepts concurrent graph
// submissions. It is the paper's centralized dynamic scheduler: a free
// worker takes the highest-priority ready task, which realizes the
// look-ahead scheme. Each submission keeps its own ready heap, priority
// space, trace and failure state, so several factorizations can interleave
// on the same cores; a panicking task fails only its own submission and
// leaves the pool usable.
//
// It is the only executor: long-lived callers (factor.Engine) hold one Pool
// and amortize worker startup across many factorizations, and one-shot
// callers create a Pool, submit one graph and Close it.
type Pool struct {
	workers int

	// completed counts every task accounted for (run or drained) since the
	// pool started. It only ever increases while the pool is live, so a
	// watchdog can detect a wedged scheduler by watching it stand still.
	completed atomic.Uint64

	// metrics is the pool's always-on instrumentation (see metrics.go);
	// its mu-suffixed counters are guarded by mu below.
	metrics *poolMetrics

	mu          sync.Mutex
	cond        *sync.Cond
	subs        []*Submission // submissions with unfinished tasks
	rr          int           // round-robin cursor over subs, for fairness
	closed      bool
	interceptor Interceptor     // per-task pre-run hook; nil in production
	postIc      PostInterceptor // per-task post-run hook; nil in production
	wg          sync.WaitGroup
}

// NewPool starts a pool with the given number of worker goroutines
// (workers >= 1). Call Close to stop them.
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("sched: pool with %d workers", workers))
	}
	p := &Pool{workers: workers, metrics: newPoolMetrics(workers)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		p.spawn(func() { p.worker(w) })
	}
	return p
}

// spawn starts fn on its own goroutine behind a recover barrier. runTask
// already confines task panics to their submission; this barrier is the
// last resort for a panic in the scheduler machinery itself (worker loop,
// drain signalling, ctx watchers). Instead of killing the process — and
// every concurrent submission with it — such a panic fails all in-flight
// submissions with a typed error and releases their waiters, so callers
// observe an error rather than a crash or a deadlocked Wait.
func (p *Pool) spawn(fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.failAll(fmt.Errorf("sched: internal panic: %v", r))
			}
		}()
		fn()
	}()
}

// failAll marks every in-flight submission failed and releases its
// waiters. It is the pool's poison state: after a scheduler panic the
// task accounting cannot be trusted, so the submissions are terminated
// rather than drained.
func (p *Pool) failAll(err error) {
	p.mu.Lock()
	subs := p.subs
	p.subs = nil
	for _, s := range subs {
		if s.failed == nil {
			s.failed = err
		}
		closeDoneLocked(s)
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// closeDoneLocked closes s.done exactly once; failAll may already have
// released the submission's waiters. Caller holds pool.mu, which
// serializes every close of s.done.
func closeDoneLocked(s *Submission) {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// SetInterceptor installs (or, with nil, removes) the pool's per-task hook.
// The hook applies to tasks dispatched after the call; tasks already
// executing keep the hook they started with. Safe to call concurrently
// with Submit.
func (p *Pool) SetInterceptor(fn Interceptor) {
	p.mu.Lock()
	p.interceptor = fn
	p.mu.Unlock()
}

// SetPostInterceptor installs (or, with nil, removes) the pool's post-run
// hook, with the same dispatch semantics as SetInterceptor.
func (p *Pool) SetPostInterceptor(fn PostInterceptor) {
	p.mu.Lock()
	p.postIc = fn
	p.mu.Unlock()
}

// CompletedTasks returns the number of tasks the pool has accounted for
// (executed or drained) since it started. The counter is monotonic while
// the pool is live; a caller that sees it unchanged across a long window
// with submissions in flight is looking at a stalled scheduler.
func (p *Pool) CompletedTasks() uint64 { return p.completed.Load() }

// Close stops accepting submissions, waits for in-flight submissions to
// drain, and joins the workers. It is idempotent and safe to call
// concurrently with Submit (submissions racing with Close either run to
// completion or fail with ErrPoolClosed).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// CloseWithTimeout closes the pool like Close but bounds the wait: if the
// in-flight submissions have not drained within d, every remaining
// submission is cancelled — its unstarted tasks are skipped and its Wait
// returns an error wrapping ErrCancelled and context.DeadlineExceeded — and
// the workers are joined as soon as the tasks already executing finish (a
// running task is never interrupted mid-kernel). It returns nil on a clean
// drain and an error wrapping context.DeadlineExceeded when it had to
// cancel. Like Close it is idempotent and safe to call concurrently with
// Submit.
func (p *Pool) CloseWithTimeout(d time.Duration) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()

	drained := make(chan struct{})
	p.spawn(func() { p.wg.Wait(); close(drained) })
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-drained:
		return nil
	case <-timer.C:
	}
	p.mu.Lock()
	for _, s := range p.subs {
		if s.failed == nil {
			s.failed = fmt.Errorf("%w: pool close timed out: %w", ErrCancelled, context.DeadlineExceeded)
		}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	return fmt.Errorf("sched: pool close timed out after %v: %w", d, context.DeadlineExceeded)
}

// Submission is one graph handed to a Pool: its own ready set, trace and
// failure state. Wait blocks until every task has been accounted for.
type Submission struct {
	pool  *Pool
	g     *Graph
	opt   SubmitOptions
	start time.Time
	done  chan struct{}

	// The fields below are guarded by pool.mu until done is closed.
	ready   taskHeap
	deps    []int
	pending int
	failed  error
	events  []Event
}

// Submit validates g and enqueues it for execution. It returns immediately;
// use Wait for completion. An empty graph completes at once.
func (p *Pool) Submit(g *Graph, opt SubmitOptions) (*Submission, error) {
	return p.SubmitCtx(context.Background(), g, opt) // calint:ignore ctx-propagation -- documented ctx-free entry point
}

// SubmitCtx is Submit bound to a context. Cancellation is observed between
// tasks: once ctx is cancelled or its deadline expires, the submission stops
// dispatching, its remaining tasks are drained without running (and without
// leaving trace events), and Wait returns an error wrapping ErrCancelled
// and ctx's error. A task already executing when the context fires is never
// interrupted. Cancelling one submission does not disturb the pool or any
// concurrent submission.
//
// An already-cancelled ctx rejects the submission outright: no task runs
// and the wrapped context error is returned here rather than from Wait.
func (p *Pool) SubmitCtx(ctx context.Context, g *Graph, opt SubmitOptions) (*Submission, error) {
	if ctx == nil {
		ctx = context.Background() // calint:ignore ctx-propagation -- nil ctx normalized at the API boundary
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w before start: %w", ErrCancelled, err)
	}
	n := g.Len()
	s := &Submission{pool: p, g: g, opt: opt, start: time.Now(), done: make(chan struct{})}
	if opt.Trace && n > 0 {
		s.events = make([]Event, 0, n)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if n == 0 {
		close(s.done)
		p.mu.Unlock()
		return s, nil
	}
	s.pending = n
	s.deps = make([]int, n)
	for i, t := range g.tasks {
		s.deps[i] = t.ndeps
		if t.ndeps == 0 {
			s.ready = append(s.ready, t)
		}
	}
	heap.Init(&s.ready)
	p.metrics.submissions++
	p.metrics.readyDelta(int64(s.ready.Len()))
	p.subs = append(p.subs, s)
	p.mu.Unlock()
	p.cond.Broadcast()
	if ctx.Done() != nil {
		// Watcher: marks the submission failed the moment the context fires,
		// so workers skip (drain) everything not yet started. It exits as
		// soon as the submission completes.
		p.spawn(func() {
			select {
			case <-ctx.Done():
				s.cancel(fmt.Errorf("%w: %w", ErrCancelled, ctx.Err()))
			case <-s.done:
			}
		})
	}
	return s, nil
}

// cancel marks the submission failed so that workers drain its remaining
// tasks without running them. After completion it is a no-op; tasks already
// executing finish normally.
func (s *Submission) cancel(err error) {
	p := s.pool
	p.mu.Lock()
	select {
	case <-s.done:
		p.mu.Unlock()
		return
	default:
	}
	if s.failed == nil {
		s.failed = err
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Wait blocks until the submission has finished and returns its trace (nil
// unless SubmitOptions.Trace) and the first task failure, if any. A task
// panic is captured as an error; the remaining tasks of the submission are
// drained without running, and the pool stays usable for other submissions.
// Cancellation (SubmitCtx) surfaces the same way: the error wraps
// ErrCancelled and the context's error. Drained tasks never appear in the
// trace — an Event means the task actually executed.
func (s *Submission) Wait() ([]Event, error) {
	<-s.done
	return s.events, s.failed
}

// Done returns a channel closed when the submission has finished.
func (s *Submission) Done() <-chan struct{} { return s.done }

// take pops the submission's highest-priority ready task, or nil. Caller
// holds pool.mu (which also guards the depth counters updated here).
func (s *Submission) take(p *Pool) *Task {
	if len(s.ready) == 0 {
		return nil
	}
	p.metrics.readyDelta(-1)
	return heap.Pop(&s.ready).(*Task)
}

// push makes a newly ready task available. Caller holds pool.mu.
func (s *Submission) push(p *Pool, t *Task) {
	p.metrics.readyDelta(1)
	heap.Push(&s.ready, t)
}

// takeLocked scans the active submissions round-robin for a ready task.
// Caller holds pool.mu.
func (p *Pool) takeLocked() (*Submission, *Task) {
	n := len(p.subs)
	for i := 0; i < n; i++ {
		s := p.subs[(p.rr+i)%n]
		if t := s.take(p); t != nil {
			p.rr = (p.rr + i + 1) % n
			return s, t
		}
	}
	return nil, nil
}

// removeLocked drops a finished submission. Caller holds pool.mu.
func (p *Pool) removeLocked(s *Submission) {
	for i, cur := range p.subs {
		if cur == s {
			p.subs = append(p.subs[:i], p.subs[i+1:]...)
			if p.rr > i {
				p.rr--
			}
			return
		}
	}
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		s, t := p.takeLocked()
		if t == nil {
			if p.closed && len(p.subs) == 0 {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		skip := s.failed != nil
		ic := p.interceptor
		post := p.postIc
		p.mu.Unlock()

		t0 := time.Since(s.start)
		ran := t.Run != nil && !skip
		var failure error
		if ran {
			failure = runTask(t, ic, post, id)
		}
		t1 := time.Since(s.start)
		p.completed.Add(1)
		if ran {
			p.metrics.taskDone(id, t.Kind, t1-t0)
		}

		p.mu.Lock()
		// Tasks skipped while draining a failed or cancelled submission never
		// ran; recording a span for them would make the trace lie.
		if s.opt.Trace && !skip {
			s.events = append(s.events, Event{TaskID: t.ID, Worker: id, Start: t0, End: t1})
		}
		if failure != nil && s.failed == nil {
			s.failed = failure
		}
		woke := false
		for _, succ := range t.succs {
			s.deps[succ]--
			if s.deps[succ] == 0 {
				s.push(p, s.g.tasks[succ])
				woke = true
			}
		}
		s.pending--
		if s.pending == 0 {
			p.removeLocked(s)
			closeDoneLocked(s)
			woke = true
		}
		if woke {
			p.cond.Broadcast()
		}
	}
}
