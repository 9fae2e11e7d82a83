package factor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// ErrEngineClosed is returned by Engine.LU and Engine.QR after Close.
var ErrEngineClosed = errors.New("factor: engine is closed")

// ErrOverloaded is returned when admission control sheds a request: the
// engine already has EngineConfig.MaxInFlight factorizations in flight.
// The request was rejected before touching the input matrix, so the caller
// may retry it unchanged after backing off.
var ErrOverloaded = errors.New("factor: engine overloaded")

// ErrStalled is returned when the engine's watchdog detects a stalled
// request: no task on the pool completed for EngineConfig.StallTimeout
// while requests were in flight. Stalls are treated as transient (a wedged
// worker, a pathological schedule) and retried when MaxRetries allows.
var ErrStalled = errors.New("factor: factorization stalled")

// ErrNonFinite is re-exported from core: the input matrix contains a NaN
// or Inf entry, or a QR factorization of a finite input overflowed (R has
// a non-finite diagonal entry). Permanent — never retried.
var ErrNonFinite = core.ErrNonFinite

// ErrCancelled is re-exported from sched: a factorization was cancelled
// mid-run. Errors from the Ctx entry points wrap it alongside the
// context's own error.
var ErrCancelled = sched.ErrCancelled

// TaskInfo describes one task about to execute on the engine's pool, as
// passed to a TaskInterceptor. Alias of the scheduler's type.
type TaskInfo = sched.TaskInfo

// TaskInterceptor runs before every task on the engine's pool; a non-nil
// return fails the task (and its factorization) without running it. It is
// the hook the internal/fault chaos injector plugs into. Production
// engines leave it nil and pay a single nil-check per task.
type TaskInterceptor = sched.Interceptor

// TaskPostInterceptor runs after every task on the engine's pool that
// exposes an output buffer, with write access to that buffer. It is the
// hook the chaos injector's silent-corruption rules plug into (ABFT
// verification must detect whatever it plants). Production engines leave
// it nil.
type TaskPostInterceptor = sched.PostInterceptor

// EngineConfig configures a self-healing engine. The zero value of every
// field is a sensible default: unbounded admission, no retries, no
// watchdog, no growth guardrail, no interceptor.
type EngineConfig struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// MaxInFlight bounds the number of concurrently served requests;
	// requests beyond it fail fast with ErrOverloaded instead of queueing
	// without bound. 0 means unlimited.
	MaxInFlight int
	// MaxRetries is how many times a transiently failed request (injected
	// fault, task panic, watchdog stall) is retried after restoring the
	// input matrix from a snapshot. 0 disables retries — and the snapshot,
	// so the common configuration pays nothing.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it, with up to 50% random jitter added. 0 means 2ms.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff. 0 means 250ms.
	RetryBackoffMax time.Duration
	// StallTimeout arms the watchdog: if no task on the pool completes for
	// this long while requests are in flight, every in-flight request is
	// cancelled with ErrStalled (and retried, if MaxRetries allows).
	// Detection is pool-wide — progress by any request counts as progress.
	// 0 disables the watchdog.
	StallTimeout time.Duration
	// GrowthThreshold is the default pivot-growth guardrail threshold for
	// LU requests that leave Options.GrowthThreshold zero; see
	// Options.GrowthThreshold. 0 leaves the guardrail off by default.
	GrowthThreshold float64
	// Interceptor, when non-nil, runs before every task on the pool. Used
	// by chaos tests to inject faults; see internal/fault.
	Interceptor TaskInterceptor
	// PostInterceptor, when non-nil, runs after every task on the pool
	// that exposes an output buffer. Used by chaos tests to plant silent
	// data corruption for ABFT verification to catch; see internal/fault.
	PostInterceptor TaskPostInterceptor
	// CacheEntries bounds the content-addressed result cache used by the
	// LUCachedCtx/QRCachedCtx entry points: up to this many factorizations
	// are retained in an LRU keyed by the input's bytes and the numeric
	// options. 0 disables the cache (the cached entry points then always
	// factor). See doc/SERVICE.md.
	CacheEntries int
	// BatchWindow enables request coalescing: eligible factorizations
	// (m >= n, both dimensions <= BatchMaxDim, no Trace) arriving within
	// this window are merged into a single pool submission, so many small
	// requests keep the workers saturated instead of trickling in one tiny
	// graph at a time. 0 disables coalescing. See doc/SERVICE.md.
	BatchWindow time.Duration
	// BatchMaxRequests flushes a coalescing window early once this many
	// requests are pending. 0 means 16.
	BatchMaxRequests int
	// BatchMaxDim bounds coalescing eligibility: only matrices with
	// Rows <= BatchMaxDim and Cols <= BatchMaxDim ride a batch (large
	// factorizations saturate the pool on their own and would only delay
	// the batch). 0 means 256.
	BatchMaxDim int
	// MetricsNamespace prefixes the engine's registered metric names
	// (e.g. "facsvc_engine" → facsvc_engine_retries_total). Empty means
	// "engine".
	MetricsNamespace string
	// VerifyChecksums arms ABFT checksum verification (Options.Verify) for
	// every request on this engine, whether or not the request asked for it.
	// Detections and recoveries are counted in Stats and /metrics; an
	// unrecoverable mismatch fails the attempt with ErrCorrupted, which is
	// transient and retried when MaxRetries allows. See doc/ROBUSTNESS.md.
	VerifyChecksums bool
	// MaxPanelRecomputes bounds how many corrupted CALU panels a single
	// verified factorization may recompute locally before escalating to
	// ErrCorrupted. 0 means 2; negative disables local recovery (every
	// detection escalates).
	MaxPanelRecomputes int
}

// Stats is a snapshot of an engine's self-healing counters.
type Stats struct {
	// Retries counts factorization attempts beyond each request's first.
	Retries int64
	// Shed counts requests rejected with ErrOverloaded.
	Shed int64
	// Stalled counts requests the watchdog cancelled with ErrStalled
	// (including ones that subsequently succeeded on retry).
	Stalled int64
	// InFlight is the number of requests currently admitted.
	InFlight int64
	// CacheHits counts cached-entry-point requests served without a new
	// factorization (including requests that joined an in-flight identical
	// one); CacheMisses counts the ones that factored; CacheEvictions
	// counts LRU entries dropped to stay within CacheEntries.
	CacheHits, CacheMisses, CacheEvictions int64
	// BatchedRequests counts factorization attempts served through a
	// coalesced submission; BatchFlushes counts the merged submissions
	// issued for them.
	BatchedRequests, BatchFlushes int64
	// PoolTasks is the number of tasks the engine's pool has accounted for
	// since it started. It is monotonic: a request served entirely from
	// the cache leaves it unchanged.
	PoolTasks int64
	// CorruptionsDetected counts ABFT checksum mismatches flagged by
	// verified factorizations; PanelsRecomputed counts the ones repaired in
	// place by a panel recompute; VerifyFailRetries counts full-request
	// retries taken because an attempt failed with ErrCorrupted.
	CorruptionsDetected, PanelsRecomputed, VerifyFailRetries int64
	// CacheIntegrityEvictions counts result-cache entries evicted because
	// their stored checksum no longer matched the resident factors (the
	// request then refactors as a miss).
	CacheIntegrityEvictions int64
}

// Engine is a persistent factorization service: one fixed pool of worker
// goroutines, started by NewEngine and reused by every LU and QR call until
// Close. Calls may be issued concurrently from any number of goroutines;
// each factorization is an independent submission to the shared pool, with
// its own priority space, trace and error capture, so a failure (or a
// panicking task) in one request never affects the others or the pool.
//
// Compared with the package-level LU/QR — which build and tear down a
// private pool per call — an Engine avoids the per-request goroutine spawn
// and teardown, which matters when factoring many small matrices.
//
// An engine built with NewEngineWithConfig is additionally self-healing:
// admission control sheds excess load (ErrOverloaded), transient failures
// are retried with exponential backoff from a snapshot of the input, and a
// watchdog converts silent stalls into typed ErrStalled failures.
type Engine struct {
	pool *sched.Pool
	cfg  EngineConfig
	sem  chan struct{} // admission slots; nil when unlimited

	batch *batcher     // nil when coalescing is off
	cache *resultCache // nil when the result cache is off

	// met backs every Stats() field with a registered obs metric, shared
	// with the Prometheus exposition (Engine.Registry).
	met *engineMetrics

	watchMu  sync.Mutex
	watched  map[int64]context.CancelCauseFunc
	watchSeq int64

	stopWatch chan struct{} // nil when the watchdog is off
	watchDone chan struct{}
	stopOnce  sync.Once
}

// NewEngine starts an engine with the given number of worker goroutines
// (<= 0 means GOMAXPROCS) and no self-healing behaviors — the historical
// configuration. The caller owns the engine and must Close it to release
// the workers.
func NewEngine(workers int) *Engine {
	return NewEngineWithConfig(EngineConfig{Workers: workers})
}

// NewEngineWithConfig starts an engine with the full robustness
// configuration. The caller owns the engine and must Close it.
func NewEngineWithConfig(cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 250 * time.Millisecond
	}
	if cfg.BatchWindow > 0 {
		if cfg.BatchMaxRequests <= 0 {
			cfg.BatchMaxRequests = 16
		}
		if cfg.BatchMaxDim <= 0 {
			cfg.BatchMaxDim = 256
		}
	}
	if cfg.MetricsNamespace == "" {
		cfg.MetricsNamespace = "engine"
	}
	e := &Engine{
		pool:    sched.NewPool(cfg.Workers),
		cfg:     cfg,
		watched: make(map[int64]context.CancelCauseFunc),
	}
	e.met = newEngineMetrics(cfg.MetricsNamespace, e.pool)
	if cfg.MaxInFlight > 0 {
		e.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.CacheEntries > 0 {
		e.cache = newResultCache(cfg.CacheEntries, e.met)
	}
	if cfg.BatchWindow > 0 {
		e.batch = newBatcher(e, cfg.BatchWindow, cfg.BatchMaxRequests)
	}
	if cfg.Interceptor != nil {
		e.pool.SetInterceptor(cfg.Interceptor)
	}
	if cfg.PostInterceptor != nil {
		e.pool.SetPostInterceptor(cfg.PostInterceptor)
	}
	if cfg.StallTimeout > 0 {
		e.stopWatch = make(chan struct{})
		e.watchDone = make(chan struct{})
		go func() {
			defer func() {
				// The watchdog must never take the process down; a panic
				// here only disables stall detection.
				_ = recover()
				close(e.watchDone)
			}()
			e.watchLoop()
		}()
	}
	return e
}

// Workers returns the size of the engine's worker pool.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Stats returns a snapshot of the self-healing, cache and batching
// counters. Every field reads the same registered metric the Prometheus
// exposition (Registry) serves — one storage, two views.
func (e *Engine) Stats() Stats {
	return Stats{
		Retries:         e.met.retries.Value(),
		Shed:            e.met.shed.Value(),
		Stalled:         e.met.stalls.Value(),
		InFlight:        e.met.inFlight.Value(),
		BatchedRequests: e.met.batched.Value(),
		CacheHits:       e.met.cacheHits.Value(),
		CacheMisses:     e.met.cacheMisses.Value(),
		CacheEvictions:  e.met.cacheEvictions.Value(),
		BatchFlushes:    e.met.batchFlushes.Value(),
		PoolTasks:       int64(e.pool.CompletedTasks()),

		CorruptionsDetected:     e.met.corruptions.Value(),
		PanelsRecomputed:        e.met.panelRecomputes.Value(),
		VerifyFailRetries:       e.met.verifyFailRetries.Value(),
		CacheIntegrityEvictions: e.met.integrityEvictions.Value(),
	}
}

// Registry exposes the engine's metric registry for exposition (cmd/facsvc
// gathers it into /metrics). Callers must not register further metrics on
// it.
func (e *Engine) Registry() *obs.Registry { return e.met.reg }

// PoolMetrics snapshots the engine's scheduler-pool instrumentation:
// per-worker busy time, queue depth high-water marks and per-kind task
// latency. See sched.PoolMetrics.
func (e *Engine) PoolMetrics() sched.PoolMetrics { return e.pool.Metrics() }

// Close shuts the engine down: in-flight factorizations complete, the
// watchdog and the workers exit, and subsequent LU/QR calls fail with
// ErrEngineClosed. A pending coalescing window is flushed first, so batched
// requests already accepted still complete. Close is idempotent.
func (e *Engine) Close() {
	e.stopWatchdog()
	if e.batch != nil {
		e.batch.close()
	}
	e.pool.Close()
}

// CloseWithTimeout shuts the engine down like Close but bounds the wait: if
// in-flight factorizations have not drained within d, their still-queued
// tasks are cancelled — each affected LU/QR call returns an error wrapping
// context.DeadlineExceeded instead of blocking forever — and the workers
// exit once the kernels already executing finish. It returns nil on a clean
// drain and an error wrapping context.DeadlineExceeded when it had to
// cancel. Idempotent, like Close.
func (e *Engine) CloseWithTimeout(d time.Duration) error {
	e.stopWatchdog()
	if e.batch != nil {
		e.batch.close()
	}
	return e.pool.CloseWithTimeout(d)
}

// stopWatchdog stops the watchdog goroutine and waits for it to exit.
func (e *Engine) stopWatchdog() {
	if e.stopWatch == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stopWatch) })
	<-e.watchDone
}

// watchLoop is the stall watchdog: it polls the pool's completed-task
// counter and, when it freezes for StallTimeout with requests registered,
// cancels every registered request with ErrStalled as the cause.
func (e *Engine) watchLoop() {
	interval := e.cfg.StallTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := e.pool.CompletedTasks()
	lastChange := time.Now()
	for {
		select {
		case <-e.stopWatch:
			return
		case <-ticker.C:
			cur := e.pool.CompletedTasks()
			if cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			e.watchMu.Lock()
			idle := len(e.watched) == 0
			e.watchMu.Unlock()
			if idle {
				// Nothing registered: a frozen counter means an idle pool,
				// not a stall.
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= e.cfg.StallTimeout {
				e.cancelWatched()
				lastChange = time.Now()
			}
		}
	}
}

// cancelWatched cancels every registered request with ErrStalled.
func (e *Engine) cancelWatched() {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	for _, cancel := range e.watched {
		cancel(ErrStalled)
	}
}

// watch derives the context one factorization attempt runs under. With the
// watchdog armed it is cancellable with a cause; the returned release must
// be called when the attempt finishes, from the serving goroutine.
func (e *Engine) watch(ctx context.Context) (context.Context, func()) {
	if e.stopWatch == nil {
		return ctx, func() {}
	}
	actx, cancel := context.WithCancelCause(ctx)
	e.watchMu.Lock()
	e.watchSeq++
	id := e.watchSeq
	e.watched[id] = cancel
	e.watchMu.Unlock()
	return actx, func() {
		e.watchMu.Lock()
		delete(e.watched, id)
		e.watchMu.Unlock()
		cancel(nil)
	}
}

// admit claims an in-flight slot, shedding the request when none is free.
func (e *Engine) admit() error {
	if e.sem == nil {
		return nil
	}
	select {
	case e.sem <- struct{}{}:
		return nil
	default:
		e.met.shed.Inc()
		return fmt.Errorf("%w: %d requests in flight", ErrOverloaded, e.cfg.MaxInFlight)
	}
}

// release returns an admission slot.
func (e *Engine) release() {
	if e.sem != nil {
		<-e.sem
	}
}

// retryable classifies a failed attempt. Input errors (shape, singularity,
// non-finite entries), engine shutdown and the caller's own cancellation
// are permanent; everything else — injected faults, task panics, watchdog
// stalls — is transient and worth a retry.
func retryable(err error) bool {
	switch {
	case errors.Is(err, ErrShape),
		errors.Is(err, ErrSingular),
		errors.Is(err, ErrNonFinite),
		errors.Is(err, ErrEngineClosed),
		errors.Is(err, sched.ErrPoolClosed):
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// backoff sleeps for the attempt's exponential backoff (with jitter),
// returning early with ctx's error if the caller cancels meanwhile.
func (e *Engine) backoff(ctx context.Context, attempt int) error {
	d := backoffDelay(e.cfg.RetryBackoff, e.cfg.RetryBackoffMax, attempt)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// backoffDelay computes one retry's sleep: exponential in the attempt with
// up to 50% random jitter, clamped to max AFTER the jitter is added —
// RetryBackoffMax is a promise to the caller (a serving front end derives
// Retry-After from it), so no retry may ever sleep past it.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	if d > max {
		d = max
	}
	return d
}

// serve runs one request through the engine's pipeline: admission, then
// the solo or coalesced route under the retry policy, each attempt
// registered with the watchdog. The solo route factors a in place and
// restores it from a snapshot between attempts; the coalesced route
// factors a private copy, so it needs no snapshot.
func serve[F any](ctx context.Context, e *Engine, o op[F], a *Matrix, opt Options) (F, error) {
	var none F
	start := time.Now()
	// The caller's context is checked before admission: a request that was
	// already cancelled must report its own cancellation, not consume an
	// admission decision — returning ErrOverloaded (and bumping the Shed
	// counter) for a request the caller abandoned would tell a retrying
	// client to back off for capacity the engine never lacked.
	if err := ctx.Err(); err != nil {
		return none, fmt.Errorf("%w before admission: %w", ErrCancelled, err)
	}
	if err := e.admit(); err != nil {
		return none, err
	}
	defer e.release()
	e.met.inFlight.Add(1)
	defer e.met.inFlight.Add(-1)

	iopt := e.engineOptions(opt)
	run := func(actx context.Context) (F, error) { return o.factor(a, a, iopt, solo(actx, e.pool)) }
	var snap *Matrix
	if e.batchEligible(a, iopt) {
		run = func(actx context.Context) (F, error) { return coalesced(actx, e, o, a, iopt) }
	} else if e.cfg.MaxRetries > 0 && a != nil {
		// Factorizations destroy their input, so retrying needs the
		// original back. The snapshot costs one copy of a; engines with
		// MaxRetries == 0 never pay it.
		snap = a.Clone()
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if snap != nil {
				a.CopyFrom(snap)
			}
			e.met.retries.Inc()
		}
		actx, release := e.watch(ctx)
		f, err := run(actx)
		stalled := err != nil && errors.Is(context.Cause(actx), ErrStalled)
		release()
		if err == nil {
			e.met.requestSeconds.With(o.label).Observe(time.Since(start).Seconds())
			return f, nil
		}
		if stalled {
			e.met.stalls.Inc()
			// Substitute the stall sentinel for the raw cancellation error:
			// the attempt died because the watchdog cancelled it, and — as
			// a self-inflicted cancellation — it must stay retryable, which
			// the wrapped context.Canceled would not be.
			err = fmt.Errorf("%w: no task completed for %v (%v)", ErrStalled, e.cfg.StallTimeout, err)
		}
		err = mapErr(err)
		if attempt >= e.cfg.MaxRetries || !retryable(err) || ctx.Err() != nil {
			return none, err
		}
		if errors.Is(err, ErrCorrupted) {
			// The attempt died on an unrecovered checksum mismatch; the
			// retry about to happen is the ABFT escalation ladder's last
			// rung, counted separately from generic retries.
			e.met.verifyFailRetries.Inc()
		}
		if werr := e.backoff(ctx, attempt); werr != nil {
			return none, err
		}
	}
}

// coalesced is the batched route: one attempt factors a private copy of a
// in a merged submission and copies the factors back only on success, so
// a is intact after any failure. The copy also keeps an abandoned attempt
// harmless: its batch keeps running, and writing, after the caller has
// returned.
func coalesced[F any](ctx context.Context, e *Engine, o op[F], a *Matrix, opt core.Options) (F, error) {
	work := a.Clone()
	f, err := o.factor(a, work, opt, func(r core.Request) error {
		e.met.batched.Inc()
		return e.batch.do(ctx, r)
	})
	if err == nil {
		a.CopyFrom(work)
	}
	return f, err
}

// engineOptions pins the scheduling knobs the engine owns: the worker
// count is the pool's, not the caller's, the engine's default growth
// threshold applies when the request does not set its own, and
// VerifyChecksums arms ABFT verification regardless of the request. The
// detection callbacks feed the engine's registered metrics; they are
// ignored by the cache key, which hashes only the numeric knobs.
func (e *Engine) engineOptions(opt Options) core.Options {
	opt.Workers = e.cfg.Workers
	if opt.GrowthThreshold == 0 {
		opt.GrowthThreshold = e.cfg.GrowthThreshold
	}
	iopt := opt.internal()
	if e.cfg.VerifyChecksums {
		iopt.Verify = true
	}
	if iopt.Verify {
		iopt.MaxPanelRecomputes = e.cfg.MaxPanelRecomputes
		iopt.OnCorruption = func(int) { e.met.corruptions.Inc() }
		iopt.OnPanelRecompute = func(int) { e.met.panelRecomputes.Inc() }
	}
	return iopt
}

// mapErr rewrites internal sentinels into the engine's public vocabulary:
// a closed pool becomes ErrEngineClosed. Typed errors that already belong
// to the public API (ErrOverloaded, ErrStalled, ErrNonFinite, wrapped
// cancellations) pass through unchanged.
func mapErr(err error) error {
	if errors.Is(err, sched.ErrPoolClosed) {
		return ErrEngineClosed
	}
	return err
}

// LU computes the communication-avoiding LU factorization of a in place on
// the engine's shared pool. Semantics and results are identical to the
// package-level LU with Options.Workers set to the engine's worker count,
// plus the engine's self-healing behaviors (admission control, retries,
// watchdog) when configured.
func (e *Engine) LU(a *Matrix, opt Options) (*LUFactorization, error) {
	return e.LUCtx(context.Background(), a, opt) // calint:ignore ctx-propagation -- documented ctx-free entry point
}

// QR computes the communication-avoiding QR factorization of a in place on
// the engine's shared pool. Semantics and results are identical to the
// package-level QR with Options.Workers set to the engine's worker count,
// plus the engine's self-healing behaviors when configured.
func (e *Engine) QR(a *Matrix, opt Options) (*QRFactorization, error) {
	return e.QRCtx(context.Background(), a, opt) // calint:ignore ctx-propagation -- documented ctx-free entry point
}

// LUCtx is Engine.LU bound to a context: if ctx is cancelled or its
// deadline expires — before submission or mid-factorization — the call
// returns an error wrapping context.Canceled or context.DeadlineExceeded
// and never a partial result. Kernels already executing finish; everything
// still queued is drained unrun, the engine's pool stays fully usable, and
// concurrent submissions are unaffected. Note that a is factored in place,
// so its contents are unspecified after a cancelled call (a retrying
// engine restores it between attempts, but not after the final failure).
func (e *Engine) LUCtx(ctx context.Context, a *Matrix, opt Options) (*LUFactorization, error) {
	return serve(ctx, e, luOp, a, opt)
}

// batchEligible reports whether a request rides the coalescing path: the
// batcher is on, the matrix is small enough that sharing a submission
// helps and tall-or-square, and it is untraced — a merged submission
// records no trace, so a traced request runs alone.
func (e *Engine) batchEligible(a *Matrix, opt core.Options) bool {
	return e.batch != nil && a != nil &&
		a.Rows > 0 && a.Cols > 0 && a.Rows >= a.Cols &&
		a.Rows <= e.cfg.BatchMaxDim && a.Cols <= e.cfg.BatchMaxDim &&
		!opt.Trace
}

// QRCtx is Engine.QR bound to a context, with the same cancellation
// semantics as Engine.LUCtx.
func (e *Engine) QRCtx(ctx context.Context, a *Matrix, opt Options) (*QRFactorization, error) {
	return serve(ctx, e, qrOp, a, opt)
}
