package factor

// Content-addressed result cache: the LUCachedCtx/QRCachedCtx entry points
// key a factorization by the input's bytes and its numeric options, so a
// serving front end can answer repeated identical requests without paying
// another factorization (or even another pool submission). The cache is a
// bounded LRU with single-flight coalescing: concurrent identical misses
// factor once and share the result.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// ckey is a cache key: a raw sha256 digest. A fixed-size array (rather than
// a string of the digest bytes) keeps the hit path allocation-free — map
// lookups on array keys don't materialize anything.
type ckey [sha256.Size]byte

// cacheEntry is one resident result; val holds a *LUFactorization or
// *QRFactorization shared by every hit (callers must treat it read-only).
// sum is factorChecksum's digest of the resident factor matrix at insertion,
// rechecked on every hit: a long-lived cache is exactly the memory a
// slow bit rot accumulates in, so a mismatching entry is evicted and the
// request refactors instead of serving corrupted factors forever.
type cacheEntry struct {
	key ckey
	val any
	sum uint64
}

// factorChecksum digests the result's in-place factor matrix (the payload
// every hit hands out) with FNV-1a in eight independent lanes: element i
// of a column feeds lane i mod 8, so eight dependent multiply chains run
// side by side instead of one, and the lanes fold into one word at the
// end. Every lane step is a bijection of the lane's state, so a change to
// any one element changes the sum. Allocation-free, so the hit path stays
// pinned by the AllocsPerRun gate in alloc_test.go.
func factorChecksum(v any) uint64 {
	var a *Matrix
	switch f := v.(type) {
	case *LUFactorization:
		a = f.res.A
	case *QRFactorization:
		a = f.res.A
	default:
		return 0
	}
	h := [8]uint64{fnvOffset, fnvOffset, fnvOffset, fnvOffset, fnvOffset, fnvOffset, fnvOffset, fnvOffset}
	for j := 0; j < a.Cols; j++ {
		fnvLanes(&h, a.Data[j*a.Stride:j*a.Stride+a.Rows])
	}
	sum := uint64(fnvOffset)
	for _, x := range h {
		sum = (sum ^ x) * fnvPrime
	}
	return sum
}

// The 64-bit FNV-1a offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvLanes feeds the elements of col into the eight FNV-1a lanes h,
// element i into lane i mod 8. The lanes are locals in the loop so their
// chains stay in registers.
func fnvLanes(h *[8]uint64, col []float64) {
	h0, h1, h2, h3, h4, h5, h6, h7 := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
	for ; len(col) >= 8; col = col[8:] {
		h0 = (h0 ^ math.Float64bits(col[0])) * fnvPrime
		h1 = (h1 ^ math.Float64bits(col[1])) * fnvPrime
		h2 = (h2 ^ math.Float64bits(col[2])) * fnvPrime
		h3 = (h3 ^ math.Float64bits(col[3])) * fnvPrime
		h4 = (h4 ^ math.Float64bits(col[4])) * fnvPrime
		h5 = (h5 ^ math.Float64bits(col[5])) * fnvPrime
		h6 = (h6 ^ math.Float64bits(col[6])) * fnvPrime
		h7 = (h7 ^ math.Float64bits(col[7])) * fnvPrime
	}
	*h = [8]uint64{h0, h1, h2, h3, h4, h5, h6, h7}
	for l, x := range col {
		h[l] = (h[l] ^ math.Float64bits(x)) * fnvPrime
	}
}

// flight is one in-progress fill that identical concurrent requests join.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// resultCache is the bounded LRU + single-flight store behind the cached
// entry points.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recent
	entries  map[ckey]*list.Element
	inflight map[ckey]*flight

	// hits/misses/evictions are the engine's registered cache metrics
	// (newEngineMetrics); the cache increments them, Stats and /metrics read
	// them. integrityEvictions counts entries dropped on a checksum
	// mismatch.
	hits, misses, evictions, integrityEvictions *obs.Counter
}

func newResultCache(capacity int, met *engineMetrics) *resultCache {
	return &resultCache{
		cap:                capacity,
		ll:                 list.New(),
		entries:            make(map[ckey]*list.Element),
		inflight:           make(map[ckey]*flight),
		hits:               met.cacheHits,
		misses:             met.cacheMisses,
		evictions:          met.cacheEvictions,
		integrityEvictions: met.integrityEvictions,
	}
}

// get returns the resident value for key, if any — the allocation-free hit
// path. The cached entry points call it before constructing the fill
// closure, so a steady-state hit performs no allocation at all (the
// AllocsPerRun gate in alloc_test.go pins this). The entry's checksum is
// rechecked outside the lock; a mismatch evicts it and reports a miss, so
// the caller refactors.
func (c *resultCache) get(key ckey) (any, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	v, want := ent.val, ent.sum
	c.mu.Unlock()
	if factorChecksum(v) != want {
		c.dropCorrupted(key, el)
		return nil, false
	}
	c.hits.Inc()
	return v, true
}

// dropCorrupted evicts an entry whose resident factors no longer match
// their insertion-time checksum. The element identity check tolerates the
// race where a concurrent fill already replaced the entry.
func (c *resultCache) dropCorrupted(key ckey, el *list.Element) {
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == el {
		c.ll.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	c.integrityEvictions.Inc()
}

// do returns the cached value for key, joining an identical in-flight fill
// when one exists, and otherwise filling via fn. The boolean reports a hit
// (including joining a fill — the request did not factor). Failed fills are
// not cached. A joiner shares the leader's error, except when the leader
// failed on its own context (cancelled or past its deadline) while the
// joiner's is still live: the joiner then starts over — joining a newer
// fill or leading one with its own fn — rather than inherit a cancellation
// it never asked for.
func (c *resultCache) do(ctx context.Context, key ckey, fn func() (any, error)) (any, bool, error) {
	for {
		if v, ok := c.get(key); ok {
			return v, true, nil
		}
		c.mu.Lock()
		if _, ok := c.entries[key]; ok {
			c.mu.Unlock() // filled since get looked: take it as a hit
			continue
		}
		f, ok := c.inflight[key]
		if !ok {
			break // c.mu held: lead the fill below
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("%w waiting for cached result: %w", ErrCancelled, ctx.Err())
		}
		if f.err == nil {
			c.hits.Inc()
			return f.val, true, nil
		}
		leaderGaveUp := errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)
		if !leaderGaveUp || ctx.Err() != nil {
			return nil, false, f.err
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = fn()

	sum := uint64(0)
	if f.err == nil {
		sum = factorChecksum(f.val)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: f.val, sum: sum})
		for c.ll.Len() > c.cap {
			tail := c.ll.Back()
			c.ll.Remove(tail)
			delete(c.entries, tail.Value.(*cacheEntry).key)
			c.evictions.Inc()
		}
	}
	c.mu.Unlock()
	close(f.done)
	c.misses.Inc()
	return f.val, false, f.err
}

// keyHasher is a pooled sha256 state plus the buffer cacheKey writes
// through; pooling it (and summing into the fixed array) keeps key
// computation allocation-free after warmup. The buffer hands the hash
// 32 KiB at a time rather than one 8-byte word per element.
type keyHasher struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte
}

func (hs *keyHasher) put(v uint64) {
	// Flush when the next word would not fit. A len == cap test would
	// never fire (the 57-byte header keeps len off multiples of 8), and
	// append would grow the buffer on every call instead.
	if len(hs.buf)+8 > cap(hs.buf) {
		hs.h.Write(hs.buf)
		hs.buf = hs.buf[:0]
	}
	hs.buf = binary.LittleEndian.AppendUint64(hs.buf, v)
}

var keyHashers = sync.Pool{New: func() any {
	return &keyHasher{h: sha256.New(), buf: make([]byte, 0, 32<<10)}
}}

// cacheKey hashes everything that determines a factorization's bits: the
// operation, the shape, the numeric options (block size, panel threads,
// tree shape, structured merges, growth guardrail — scheduling-only knobs
// like Workers or Lookahead are deliberately excluded), and the matrix
// contents column by column.
func cacheKey(op byte, a *Matrix, opt core.Options) (k ckey) {
	hs := keyHashers.Get().(*keyHasher)
	hs.h.Reset()
	hs.buf = append(hs.buf[:0], op)
	hs.put(uint64(a.Rows))
	hs.put(uint64(a.Cols))
	hs.put(uint64(opt.BlockSize))
	hs.put(uint64(opt.PanelThreads))
	hs.put(uint64(opt.Tree))
	if opt.StructuredTree {
		hs.put(1)
	} else {
		hs.put(0)
	}
	hs.put(math.Float64bits(opt.GrowthThreshold))
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.Stride : j*a.Stride+a.Rows]
		for _, v := range col {
			hs.put(math.Float64bits(v))
		}
	}
	hs.h.Write(hs.buf)
	copy(k[:], hs.h.Sum(hs.sum[:0]))
	keyHashers.Put(hs)
	return k
}

// LUCachedCtx is Engine.LUCtx behind the content-addressed result cache: it
// never modifies a (misses factor a private clone), and on a hit returns
// the shared cached handle, which the caller must treat as read-only. The
// boolean reports whether the result came from the cache (or an identical
// in-flight request). With EngineConfig.CacheEntries zero the call always
// factors and reports false.
func (e *Engine) LUCachedCtx(ctx context.Context, a *Matrix, opt Options) (*LUFactorization, bool, error) {
	return cached(ctx, e, luOp, a, opt)
}

// QRCachedCtx is Engine.QRCtx behind the result cache, with the same
// contract as LUCachedCtx.
func (e *Engine) QRCachedCtx(ctx context.Context, a *Matrix, opt Options) (*QRFactorization, bool, error) {
	return cached(ctx, e, qrOp, a, opt)
}

// cached is the cache stage in front of serve. Every route leaves a
// untouched: a miss serves a private clone.
func cached[F any](ctx context.Context, e *Engine, o op[F], a *Matrix, opt Options) (F, bool, error) {
	if e.cache == nil || a == nil {
		var clone *Matrix // a nil a reaches Prepare, which reports it
		if a != nil {
			clone = a.Clone()
		}
		f, err := serve(ctx, e, o, clone, opt)
		return f, false, err
	}
	key := cacheKey(o.label[0], a, e.engineOptions(opt))
	// Resident-hit fast path first: no fill closure, no allocation.
	if v, ok := e.cache.get(key); ok {
		return v.(F), true, nil
	}
	v, hit, err := e.cache.do(ctx, key, func() (any, error) {
		return serve(ctx, e, o, a.Clone(), opt)
	})
	if err != nil {
		var none F
		return none, false, err
	}
	return v.(F), hit, nil
}
