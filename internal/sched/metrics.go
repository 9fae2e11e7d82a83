package sched

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metrics.go is the pool's always-on instrumentation: per-worker busy time
// and task counts (lock-free atomics on the worker hot path), queue-depth
// accounting (plain fields guarded by pool.mu, updated where the scheduler
// already holds it), and per-Kind task-latency histograms.
// The paper argues CALU/CAQR from where worker time goes (Figs. 3-4);
// Pool.Metrics is the numeric form of that argument, cheap enough to leave
// enabled under production traffic.

// instrumentationEnabled is the package-level default captured by NewPool.
// It exists for overhead A/B measurement (cabench -obs-overhead builds
// pools with it off) — production code never touches it.
var instrumentationEnabled atomic.Bool

func init() { instrumentationEnabled.Store(true) }

// SetInstrumentation sets whether pools created *after* the call record
// per-task metrics (busy time, kind latency). Existing pools keep the
// setting they were built with. Metrics() stays safe either way; with
// instrumentation off it reports zero busy time and empty histograms.
func SetInstrumentation(on bool) { instrumentationEnabled.Store(on) }

// numKinds sizes the per-Kind histogram array (KindP..KindOther).
const numKinds = int(KindOther) + 1

// poolMetrics holds the pool's instrumentation state. Hot-path fields are
// atomics; the mu-suffixed block is guarded by pool.mu.
type poolMetrics struct {
	enabled bool
	started time.Time

	busy  []atomic.Int64 // per-worker nanoseconds spent inside runTask
	tasks []atomic.Int64 // per-worker tasks executed (skipped drains excluded)

	kindLatency [numKinds]*obs.Histogram // per-Kind task wall time, seconds

	// Guarded by pool.mu (updated where the scheduler already holds it).
	readyCount     int64 // tasks currently ready across submissions
	readyHighWater int64 // max readyCount since pool start
	submissions    int64 // graphs accepted since pool start
}

func newPoolMetrics(workers int) *poolMetrics {
	m := &poolMetrics{
		enabled: instrumentationEnabled.Load(),
		started: time.Now(),
		busy:    make([]atomic.Int64, workers),
		tasks:   make([]atomic.Int64, workers),
	}
	for k := range m.kindLatency {
		m.kindLatency[k] = obs.NewHistogram(nil)
	}
	return m
}

// taskDone records one executed task. Called off-lock from the worker loop.
func (m *poolMetrics) taskDone(worker int, kind Kind, d time.Duration) {
	if !m.enabled {
		return
	}
	m.busy[worker].Add(int64(d))
	m.tasks[worker].Add(1)
	if int(kind) >= numKinds {
		kind = KindOther
	}
	m.kindLatency[kind].Observe(d.Seconds())
}

// readyDelta moves the ready-task depth and maintains its high-water mark.
// Caller holds pool.mu.
func (m *poolMetrics) readyDelta(n int64) {
	m.readyCount += n
	if m.readyCount > m.readyHighWater {
		m.readyHighWater = m.readyCount
	}
}

// PoolMetrics is a point-in-time snapshot of a pool's instrumentation,
// taken under the pool mutex so the mu-guarded fields are mutually
// consistent (the atomics are each exact; a task finishing mid-snapshot
// may appear in Completed before its busy time lands — skew bounded by
// the in-flight tasks).
type PoolMetrics struct {
	// Workers is the pool size; Uptime the time since NewPool.
	Workers int
	Uptime  time.Duration
	// Completed counts tasks accounted for (executed or drained) pool-wide;
	// Submissions counts graphs accepted.
	Completed   uint64
	Submissions int64
	// WorkerBusy[w] is the time worker w spent executing tasks;
	// WorkerTasks[w] the number it executed (drained tasks excluded).
	// Idle time for w is Uptime - WorkerBusy[w].
	WorkerBusy  []time.Duration
	WorkerTasks []int64
	// ReadyDepth is the current number of ready tasks across submissions;
	// ReadyHighWater its maximum since pool start.
	ReadyDepth     int64
	ReadyHighWater int64
	// KindLatency[k] is the task wall-time distribution (seconds) for
	// Kind(k), indexed KindP..KindOther. Empty when instrumentation was off
	// at NewPool.
	KindLatency [numKinds]obs.HistogramSnapshot
}

// BusyTotal sums busy time across workers.
func (pm *PoolMetrics) BusyTotal() time.Duration {
	var t time.Duration
	for _, b := range pm.WorkerBusy {
		t += b
	}
	return t
}

// Utilization is the busy fraction of total worker-time since pool start
// (1.0 = every worker always executing).
func (pm *PoolMetrics) Utilization() float64 {
	if pm.Uptime <= 0 || pm.Workers == 0 {
		return 0
	}
	return float64(pm.BusyTotal()) / (float64(pm.Uptime) * float64(pm.Workers))
}

// Metrics snapshots the pool's instrumentation. The mu-guarded counters are
// read under the pool mutex; per-worker atomics and histograms are read
// per-metric exact.
func (p *Pool) Metrics() PoolMetrics {
	m := p.metrics
	pm := PoolMetrics{
		Workers:     p.workers,
		Uptime:      time.Since(m.started),
		Completed:   p.completed.Load(),
		WorkerBusy:  make([]time.Duration, p.workers),
		WorkerTasks: make([]int64, p.workers),
	}
	p.mu.Lock()
	pm.Submissions = m.submissions
	pm.ReadyDepth = m.readyCount
	pm.ReadyHighWater = m.readyHighWater
	p.mu.Unlock()
	for w := 0; w < p.workers; w++ {
		pm.WorkerBusy[w] = time.Duration(m.busy[w].Load())
		pm.WorkerTasks[w] = m.tasks[w].Load()
	}
	for k := range m.kindLatency {
		pm.KindLatency[k] = m.kindLatency[k].Snapshot()
	}
	return pm
}
