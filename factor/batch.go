package factor

// Request coalescing: many small factorizations arriving within a short
// window run as ONE core.Run over all of their prepared requests — a single
// merged pool submission instead of one apiece: the paper's aggregation of
// small operations into fewer, larger ones, applied at the service level.
// A merged batch keeps the workers draining one combined ready set where
// per-request submissions would leave them idling between tiny graphs.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// batchItem is one enqueued request; done is closed once its batch has run
// and err holds the batch's error.
type batchItem struct {
	req  core.Request
	done chan struct{}
	err  error
}

// batcher accumulates eligible requests for up to window (or maxReq
// requests, whichever comes first) and flushes them as one merged pool
// submission.
type batcher struct {
	e      *Engine
	window time.Duration
	maxReq int

	mu      sync.Mutex
	pending []*batchItem
	timer   *time.Timer
	closed  bool

	// flushes is the engine's registered batch-flush counter
	// (newEngineMetrics).
	flushes *obs.Counter
}

func newBatcher(e *Engine, window time.Duration, maxReq int) *batcher {
	return &batcher{e: e, window: window, maxReq: maxReq, flushes: e.met.batchFlushes}
}

// do enqueues req and waits for its batch to run, returning the batch's
// error for the caller to finish req with. Abandoning on ctx cancellation
// does not cancel the merged submission — batch-mates still complete; a
// wedged submission is the watchdog's and CloseWithTimeout's job.
func (b *batcher) do(ctx context.Context, req core.Request) error {
	it := &batchItem{req: req, done: make(chan struct{})}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrEngineClosed
	}
	b.pending = append(b.pending, it)
	if len(b.pending) >= b.maxReq {
		items := b.takeLocked()
		b.mu.Unlock()
		go b.flush(items)
	} else {
		if len(b.pending) == 1 {
			b.timer = time.AfterFunc(b.window, b.timedFlush)
		}
		b.mu.Unlock()
	}
	select {
	case <-it.done:
		return it.err
	case <-ctx.Done():
		return fmt.Errorf("%w waiting for batch: %w", ErrCancelled, ctx.Err())
	}
}

// takeLocked detaches the pending window; callers hold b.mu.
func (b *batcher) takeLocked() []*batchItem {
	items := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return items
}

// timedFlush fires when a window expires with fewer than maxReq requests.
func (b *batcher) timedFlush() {
	b.mu.Lock()
	items := b.takeLocked()
	b.mu.Unlock()
	go b.flush(items)
}

// flush runs the items' requests as one core.Run and completes every item
// with the run's error. It must never leak a blocked waiter: the items are
// completed from a deferred func, and a panic anywhere in the run becomes
// their error.
func (b *batcher) flush(items []*batchItem) {
	if len(items) == 0 {
		return
	}
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("factor: batch flush panicked: %v", r)
		}
		for _, it := range items {
			it.err = err
			close(it.done)
		}
	}()
	reqs := make([]core.Request, len(items))
	for i, it := range items {
		reqs[i] = it.req
	}
	// calint:ignore ctx-propagation -- the merged submission deliberately outlives any single request's ctx (batch-mates share it; see do's doc comment)
	err = core.Run(context.Background(), b.e.pool, reqs...)
	b.flushes.Inc()
}

// close flushes the pending window synchronously and rejects future
// enqueues. It runs before the pool shuts down, so already-accepted batched
// requests still complete.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	items := b.takeLocked()
	b.mu.Unlock()
	b.flush(items)
}
