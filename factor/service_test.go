package factor

// Tests for the serving-oriented engine features: the backoff clamp and
// admission-ordering bugfixes, request coalescing, and the content-addressed
// result cache.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tslu"
)

// TestBackoffDelayNeverExceedsMax is the regression test for the jitter
// clamp bug: jitter used to be added after clamping to RetryBackoffMax, so
// late retries could sleep up to 1.5x the configured cap. Every delay, at
// every attempt, must stay within [0, max].
func TestBackoffDelayNeverExceedsMax(t *testing.T) {
	const (
		base = 2 * time.Millisecond
		max  = 50 * time.Millisecond
	)
	for attempt := 0; attempt < 40; attempt++ {
		for trial := 0; trial < 200; trial++ {
			d := BackoffDelay(base, max, attempt)
			if d <= 0 || d > max {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, max)
			}
		}
	}
	// The shift overflow path (attempt large enough that base<<attempt
	// wraps negative) must also land on the clamped max, not a garbage
	// duration.
	for trial := 0; trial < 200; trial++ {
		if d := BackoffDelay(base, max, 200); d <= 0 || d > max {
			t.Fatalf("overflowed attempt: delay %v outside (0, %v]", d, max)
		}
	}
}

// TestServeChecksContextBeforeAdmission is the regression test for the
// admission-ordering bug: a request arriving with an already-cancelled
// context used to consume an admission decision first, so on a saturated
// engine it was misreported as ErrOverloaded (and counted as shed),
// telling a retrying client to back off for capacity the engine never
// lacked. The cancelled request must report its own cancellation and leave
// the Shed counter alone; a live request on the same saturated engine must
// still shed.
func TestServeChecksContextBeforeAdmission(t *testing.T) {
	gate := make(chan struct{})
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 2, MaxInFlight: 1,
		Interceptor: func(info TaskInfo) error {
			<-gate
			return nil
		},
	})
	defer eng.Close()

	// Saturate the single slot with a request blocked inside the pool.
	first := make(chan error, 1)
	go func() {
		_, err := eng.LU(Random(16, 16, 1), Options{BlockSize: 4})
		first <- err
	}()
	for i := 0; eng.Stats().InFlight == 0; i++ {
		if i > 2000 {
			close(gate)
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// A pre-cancelled request must report cancellation, not overload.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.LUCtx(cancelled, Random(16, 16, 2), Options{BlockSize: 4})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCancelled) {
		close(gate)
		t.Fatalf("pre-cancelled request on saturated engine: err = %v, want context.Canceled via ErrCancelled", err)
	}
	if errors.Is(err, ErrOverloaded) {
		close(gate)
		t.Fatalf("pre-cancelled request misclassified as overload: %v", err)
	}
	if shed := eng.Stats().Shed; shed != 0 {
		close(gate)
		t.Fatalf("pre-cancelled request bumped Shed to %d", shed)
	}

	// A live request must still be shed by admission control.
	_, err = eng.LUCtx(context.Background(), Random(16, 16, 3), Options{BlockSize: 4})
	if !errors.Is(err, ErrOverloaded) {
		close(gate)
		t.Fatalf("live request on saturated engine: err = %v, want ErrOverloaded", err)
	}
	if shed := eng.Stats().Shed; shed != 1 {
		close(gate)
		t.Fatalf("Shed = %d after one shed request, want 1", shed)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("blocked request failed after release: %v", err)
	}
}

// eachRoute factors every input through every route a request can take —
// package-level, an engine's solo route, its coalesced route, a cache miss
// and then a hit, and verify mode — and returns each route's handles in
// input order. Every route factors a private copy of each input. The
// coalesced route submits all inputs concurrently and checks that each
// rode a merged submission.
func eachRoute[F any](t *testing.T, inputs []*Matrix, opt Options,
	pkg func(*Matrix, Options) (F, error),
	engine func(*Engine, *Matrix, Options) (F, error),
	cached func(*Engine, context.Context, *Matrix, Options) (F, bool, error),
) map[string][]F {
	t.Helper()
	const workers = 2
	routes := map[string][]F{}
	each := func(route string, factor func(a *Matrix) (F, error)) {
		for i, in := range inputs {
			f, err := factor(in.Clone())
			if err != nil {
				t.Fatalf("%s route, input %d: %v", route, i, err)
			}
			routes[route] = append(routes[route], f)
		}
	}

	popt := opt
	popt.Workers = workers
	each("package", func(a *Matrix) (F, error) { return pkg(a, popt) })

	solo := NewEngine(workers)
	defer solo.Close()
	each("engine", func(a *Matrix) (F, error) { return engine(solo, a, opt) })
	vopt := opt
	vopt.Verify = true
	each("verify", func(a *Matrix) (F, error) { return engine(solo, a, vopt) })

	cache := NewEngineWithConfig(EngineConfig{Workers: workers, CacheEntries: len(inputs)})
	defer cache.Close()
	for _, route := range []string{"cached miss", "cached hit"} {
		wantHit := route == "cached hit"
		each(route, func(a *Matrix) (F, error) {
			f, hit, err := cached(cache, context.Background(), a, opt)
			if err == nil && hit != wantHit {
				err = fmt.Errorf("hit = %v, want %v", hit, wantHit)
			}
			return f, err
		})
	}

	batcher := NewEngineWithConfig(EngineConfig{Workers: workers, BatchWindow: 20 * time.Millisecond})
	defer batcher.Close()
	batched := make([]F, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, a *Matrix) {
			defer wg.Done()
			batched[i], errs[i] = engine(batcher, a, opt)
		}(i, in.Clone())
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batched route, input %d: %v", i, err)
		}
	}
	routes["batched"] = batched
	n := int64(len(inputs))
	if s := batcher.Stats(); s.BatchedRequests != n || s.BatchFlushes < 1 || s.BatchFlushes > n {
		t.Fatalf("BatchedRequests = %d, BatchFlushes = %d: want %d requests in [1, %d] flushes", s.BatchedRequests, s.BatchFlushes, n, n)
	}
	return routes
}

// TestBatchedMatchesUnbatched checks that every serving route produces
// bit-identical LU results: the factors (which, on the coalesced route,
// were copied back into the caller's matrix), the permutation and the
// panels the growth guardrail re-factored.
func TestBatchedMatchesUnbatched(t *testing.T) {
	// The guardrail threshold re-factors some panels with GEPP, so the
	// table covers both pivoting paths.
	opt := Options{BlockSize: 8, GrowthThreshold: 4}
	inputs := make([]*Matrix, 6) // 21 panels in all
	for i := range inputs {
		inputs[i] = Random(48, 24+(i%2)*8, int64(i+1))
	}
	routes := eachRoute(t, inputs, opt, LU, (*Engine).LU, (*Engine).LUCachedCtx)
	ref := routes["package"]
	fellBack := 0
	for i := range inputs {
		fellBack += len(ref[i].FallbackPanels())
	}
	if fellBack == 0 || fellBack == 21 {
		t.Fatalf("%d of 21 panels fell back; the table needs both pivoting paths", fellBack)
	}
	for route, fs := range routes {
		for i, f := range fs {
			if !f.Factors().Equal(ref[i].Factors()) {
				t.Fatalf("%s route, input %d: factors differ from package-level LU", route, i)
			}
			if !slices.Equal(f.PermutationVector(), ref[i].PermutationVector()) {
				t.Fatalf("%s route, input %d: permutation differs", route, i)
			}
			if !slices.Equal(f.FallbackPanels(), ref[i].FallbackPanels()) {
				t.Fatalf("%s route, input %d: FallbackPanels %v, want %v", route, i, f.FallbackPanels(), ref[i].FallbackPanels())
			}
		}
	}
}

// TestBatchedQRMatchesUnbatched is the QR side of the route table: factors
// and R bit-identical on every route.
func TestBatchedQRMatchesUnbatched(t *testing.T) {
	opt := Options{BlockSize: 8}
	inputs := make([]*Matrix, 4)
	for i := range inputs {
		inputs[i] = Random(40, 16+(i%2)*8, int64(i+9))
	}
	routes := eachRoute(t, inputs, opt, QR, (*Engine).QR, (*Engine).QRCachedCtx)
	ref := routes["package"]
	for route, fs := range routes {
		for i, f := range fs {
			if !f.res.A.Equal(ref[i].res.A) || !f.R().Equal(ref[i].R()) {
				t.Fatalf("%s route, input %d: QR factors differ from package-level QR", route, i)
			}
		}
	}
}

// TestBatchIneligibleBypasses checks the routing guards: wide and oversize
// matrices, and traced requests, skip the batcher entirely.
func TestBatchIneligibleBypasses(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 2, BatchWindow: time.Millisecond, BatchMaxDim: 32,
	})
	defer eng.Close()

	wide := Random(8, 16, 1)
	if _, err := eng.LU(wide, Options{BlockSize: 4}); err != nil {
		t.Fatalf("wide LU on batching engine: %v", err)
	}
	big := Random(64, 48, 2)
	if _, err := eng.LU(big, Options{BlockSize: 8}); err != nil {
		t.Fatalf("oversize LU on batching engine: %v", err)
	}
	traced := Random(24, 24, 3)
	f, err := eng.LU(traced, Options{BlockSize: 8, Trace: true})
	if err != nil {
		t.Fatalf("traced LU on batching engine: %v", err)
	}
	if len(f.Events()) == 0 {
		t.Fatal("traced request lost its events (was it batched?)")
	}
	if s := eng.Stats(); s.BatchedRequests != 0 {
		t.Fatalf("BatchedRequests = %d for ineligible requests, want 0", s.BatchedRequests)
	}
}

// TestBatchFailureIsolated checks per-request isolation on the coalesced
// path: a singular batch member fails with ErrSingular while its
// batch-mate succeeds, and the caller's matrix is untouched by its own
// failed request.
func TestBatchFailureIsolated(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, BatchWindow: 20 * time.Millisecond})
	defer eng.Close()

	sing := NewMatrix(16, 16) // all zeros
	singOrig := sing.Clone()
	good := Random(16, 16, 4)

	var wg sync.WaitGroup
	var singErr, goodErr error
	wg.Add(2)
	go func() { defer wg.Done(); _, singErr = eng.LU(sing, Options{BlockSize: 4}) }()
	go func() { defer wg.Done(); _, goodErr = eng.LU(good, Options{BlockSize: 4}) }()
	wg.Wait()

	if !errors.Is(singErr, ErrSingular) {
		t.Fatalf("singular member: err = %v, want ErrSingular", singErr)
	}
	if goodErr != nil {
		t.Fatalf("good member failed alongside singular one: %v", goodErr)
	}
	if !sing.Equal(singOrig) {
		t.Fatal("failed batched request modified the caller's matrix")
	}
}

// TestBatchDrainOnClose checks Close flushes a pending window: a request
// sitting in an unexpired window when Close is called still completes.
func TestBatchDrainOnClose(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, BatchWindow: time.Hour})
	a := Random(20, 20, 5)
	done := make(chan error, 1)
	go func() {
		_, err := eng.LU(a, Options{BlockSize: 5})
		done <- err
	}()
	// Wait for the request to be sitting in the window.
	for i := 0; eng.Stats().BatchedRequests == 0; i++ {
		if i > 2000 {
			t.Fatal("request never reached the batcher")
		}
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("batched request failed across Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batched request never completed after Close")
	}
}

// TestCacheHitSkipsFactorization checks the content-addressed cache:
// repeated identical requests are served from the cache (hit counter moves,
// pool task counter does not), different inputs or options miss, and the
// input matrix is never modified.
func TestCacheHitSkipsFactorization(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: 8})
	defer eng.Close()
	opt := Options{BlockSize: 8}
	a := Random(32, 32, 6)
	orig := a.Clone()

	f1, hit, err := eng.LUCachedCtx(context.Background(), a, opt)
	if err != nil {
		t.Fatalf("first cached LU: %v", err)
	}
	if hit {
		t.Fatal("first request reported a cache hit")
	}
	if !a.Equal(orig) {
		t.Fatal("cached entry point modified the input on a miss")
	}
	tasksAfterMiss := eng.Stats().PoolTasks

	f2, hit, err := eng.LUCachedCtx(context.Background(), a, opt)
	if err != nil {
		t.Fatalf("second cached LU: %v", err)
	}
	if !hit {
		t.Fatal("identical repeat request missed the cache")
	}
	if f2 != f1 {
		t.Fatal("cache hit returned a different handle")
	}
	if got := eng.Stats().PoolTasks; got != tasksAfterMiss {
		t.Fatalf("cache hit ran %d new pool tasks", got-tasksAfterMiss)
	}
	if !a.Equal(orig) {
		t.Fatal("cached entry point modified the input on a hit")
	}

	// A different matrix, and the same matrix under different numeric
	// options, must both miss.
	b := Random(32, 32, 7)
	if _, hit, err = eng.LUCachedCtx(context.Background(), b, opt); err != nil || hit {
		t.Fatalf("different matrix: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err = eng.LUCachedCtx(context.Background(), a, Options{BlockSize: 16}); err != nil || hit {
		t.Fatalf("different options: hit=%v err=%v, want miss", hit, err)
	}
	// QR of the same bytes is a distinct key.
	if _, hit, err = eng.QRCachedCtx(context.Background(), a, opt); err != nil || hit {
		t.Fatalf("QR of LU-cached bytes: hit=%v err=%v, want miss", hit, err)
	}

	s := eng.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 4 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/4", s.CacheHits, s.CacheMisses)
	}
}

// TestCacheKeyByteStream pins cacheKey, which hashes through a buffer,
// to the byte stream written one word at a time: the op byte, the seven
// header words, then each element's IEEE bits, column by column. The
// inputs span no flush, one and several (a 32 KiB buffer holds 4096
// words), one is a strided view, and the options include every field the
// key reads.
func TestCacheKeyByteStream(t *testing.T) {
	big := Random(150, 90, 11)
	mats := []*Matrix{Random(7, 5, 10), Random(64, 64, 12), Random(4095, 1, 13), big, big.View(9, 4, 130, 70)}
	opts := []core.Options{
		{BlockSize: 100, PanelThreads: 4, Workers: 2, Lookahead: true},
		{BlockSize: 32, PanelThreads: 2, Tree: tslu.Flat, StructuredTree: true, GrowthThreshold: 2, Verify: true},
	}
	for _, a := range mats {
		for _, opt := range opts {
			for _, op := range []byte{luOp.label[0], qrOp.label[0]} {
				if got, want := cacheKey(op, a, opt), refCacheKey(op, a, opt); got != want {
					t.Fatalf("cacheKey(%c, %dx%d stride %d, %+v) = %x, want %x", op, a.Rows, a.Cols, a.Stride, opt, got, want)
				}
			}
		}
	}
}

// refCacheKey is cacheKey's byte stream handed to sha256 one word at a
// time.
func refCacheKey(op byte, a *Matrix, opt core.Options) (k ckey) {
	structured := uint64(0)
	if opt.StructuredTree {
		structured = 1
	}
	words := []uint64{uint64(a.Rows), uint64(a.Cols), uint64(opt.BlockSize), uint64(opt.PanelThreads),
		uint64(opt.Tree), structured, math.Float64bits(opt.GrowthThreshold)}
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			words = append(words, math.Float64bits(v))
		}
	}
	h := sha256.New()
	h.Write([]byte{op})
	for _, w := range words {
		h.Write(binary.LittleEndian.AppendUint64(nil, w))
	}
	copy(k[:], h.Sum(nil))
	return k
}

// TestCacheEviction checks the LRU bound: filling past CacheEntries evicts
// the oldest entry, which then misses again.
func TestCacheEviction(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: 2})
	defer eng.Close()
	opt := Options{BlockSize: 8}
	mats := []*Matrix{Random(16, 16, 1), Random(16, 16, 2), Random(16, 16, 3)}
	for i, m := range mats {
		if _, hit, err := eng.LUCachedCtx(context.Background(), m, opt); err != nil || hit {
			t.Fatalf("fill %d: hit=%v err=%v", i, hit, err)
		}
	}
	if ev := eng.Stats().CacheEvictions; ev != 1 {
		t.Fatalf("CacheEvictions = %d after overfilling by one, want 1", ev)
	}
	// The first entry was evicted: it misses; the last still hits.
	if _, hit, err := eng.LUCachedCtx(context.Background(), mats[0], opt); err != nil || hit {
		t.Fatalf("evicted entry: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := eng.LUCachedCtx(context.Background(), mats[2], opt); err != nil || !hit {
		t.Fatalf("resident entry: hit=%v err=%v, want hit", hit, err)
	}
}

// TestCacheFailuresNotCached checks a failed factorization is not stored:
// the same singular input fails again (and counts as a miss both times).
func TestCacheFailuresNotCached(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: 4})
	defer eng.Close()
	sing := NewMatrix(12, 12)
	for i := 0; i < 2; i++ {
		if _, hit, err := eng.LUCachedCtx(context.Background(), sing, Options{BlockSize: 4}); !errors.Is(err, ErrSingular) || hit {
			t.Fatalf("attempt %d: hit=%v err=%v, want miss with ErrSingular", i, hit, err)
		}
	}
	if s := eng.Stats(); s.CacheHits != 0 {
		t.Fatalf("failed requests produced %d cache hits", s.CacheHits)
	}
}

// doneSignal is a live context that reports, by closing joined, the first
// time a cache waiter selects on its Done channel — the moment a joiner is
// parked on an in-flight fill.
type doneSignal struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (c *doneSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// TestCacheJoinerOutlivesLeaderCancellation is the regression test for
// joiners inheriting the leader's cancellation: when the leader's own
// context ends mid-fill, a joiner whose context is still live must fill
// again itself rather than fail with the leader's context error, while a
// failure of the factorization itself is still shared.
func TestCacheJoinerOutlivesLeaderCancellation(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 1, CacheEntries: 4})
	defer eng.Close()
	for _, tc := range []struct {
		name      string
		leaderErr error
		wantRefil bool
	}{
		{"leader deadline", fmt.Errorf("%w: %w", ErrCancelled, context.DeadlineExceeded), true},
		{"leader cancelled", fmt.Errorf("%w: %w", ErrCancelled, context.Canceled), true},
		{"factorization error", ErrSingular, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := ckey{byte(len(tc.name))}
			joiner := &doneSignal{Context: context.Background(), joined: make(chan struct{})}
			leading, leaderDone := make(chan struct{}), make(chan error, 1)
			go func() {
				_, _, err := eng.cache.do(context.Background(), key, func() (any, error) {
					close(leading)
					<-joiner.joined // fail only once the joiner waits on this fill
					return nil, tc.leaderErr
				})
				leaderDone <- err
			}()
			<-leading
			// The joiner's fill runs only if it has to refill.
			refilled := false
			v, hit, err := eng.cache.do(joiner, key, func() (any, error) {
				refilled = true
				return "joiner's fill", nil
			})
			if lerr := <-leaderDone; !errors.Is(lerr, tc.leaderErr) {
				t.Fatalf("leader err = %v, want %v", lerr, tc.leaderErr)
			}
			if refilled != tc.wantRefil {
				t.Fatalf("joiner refilled = %v, want %v", refilled, tc.wantRefil)
			}
			if !tc.wantRefil {
				if !errors.Is(err, tc.leaderErr) || hit {
					t.Fatalf("joiner: hit=%v err=%v, want the shared %v", hit, err, tc.leaderErr)
				}
				return
			}
			if err != nil || hit || v != "joiner's fill" {
				t.Fatalf("joiner: v=%v hit=%v err=%v, want its own fill", v, hit, err)
			}
		})
	}
}

// TestCacheDisabledFallback checks the cached entry points still work (and
// still never modify the input) on an engine with no cache configured.
func TestCacheDisabledFallback(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	a := Random(16, 16, 8)
	orig := a.Clone()
	for i := 0; i < 2; i++ {
		f, hit, err := eng.LUCachedCtx(context.Background(), a, Options{BlockSize: 4})
		if err != nil || hit || f == nil {
			t.Fatalf("uncached engine attempt %d: f=%v hit=%v err=%v", i, f != nil, hit, err)
		}
	}
	if !a.Equal(orig) {
		t.Fatal("uncached fallback modified the input")
	}
}
