package sched

import (
	"sync"
	"testing"
	"time"
)

// buildChain returns a graph of n sequential tasks, each sleeping d.
func buildChain(n int, d time.Duration, kind Kind) *Graph {
	g := NewGraph()
	var prev *Task
	for i := 0; i < n; i++ {
		t := g.Add(&Task{
			Label: "t",
			Kind:  kind,
			Run:   func() { time.Sleep(d) },
		})
		if prev != nil {
			g.AddDep(prev, t)
		}
		prev = t
	}
	return g
}

func TestPoolMetricsBasics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()

	g := buildChain(6, time.Millisecond, KindS)
	s, err := p.Submit(g, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}

	m := p.Metrics()
	if m.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", m.Workers)
	}
	if m.Completed != 6 {
		t.Fatalf("Completed = %d, want 6", m.Completed)
	}
	if m.Submissions != 1 {
		t.Fatalf("Submissions = %d, want 1", m.Submissions)
	}
	var tasks int64
	for _, n := range m.WorkerTasks {
		tasks += n
	}
	if tasks != 6 {
		t.Fatalf("sum(WorkerTasks) = %d, want 6", tasks)
	}
	if busy := m.BusyTotal(); busy < 6*time.Millisecond {
		t.Fatalf("BusyTotal = %v, want >= 6ms (6 x 1ms sleeps)", busy)
	}
	if m.ReadyDepth != 0 {
		t.Fatalf("ReadyDepth = %d after drain, want 0", m.ReadyDepth)
	}
	if m.ReadyHighWater < 1 {
		t.Fatalf("ReadyHighWater = %d, want >= 1", m.ReadyHighWater)
	}
	if got := m.KindLatency[KindS].Count; got != 6 {
		t.Fatalf("KindLatency[S].Count = %d, want 6", got)
	}
	if got := m.KindLatency[KindP].Count; got != 0 {
		t.Fatalf("KindLatency[P].Count = %d, want 0", got)
	}
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("Utilization = %g, want in (0, 1]", u)
	}
}

// TestPoolMetricsWideGraph runs 64 independent tasks across four workers
// and checks every one lands in its kind's latency histogram.
func TestPoolMetricsWideGraph(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	g := NewGraph()
	for i := 0; i < 64; i++ {
		g.Add(&Task{Label: "w", Kind: KindP, Run: func() {
			time.Sleep(200 * time.Microsecond)
		}})
	}
	s, err := p.Submit(g, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	if m.KindLatency[KindP].Count != 64 {
		t.Fatalf("KindLatency[P].Count = %d, want 64", m.KindLatency[KindP].Count)
	}
}

// TestPoolMetricsConcurrentSnapshot gathers Metrics while submissions run;
// the race detector validates the locking discipline.
func TestPoolMetricsConcurrentSnapshot(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m := p.Metrics()
				if m.ReadyDepth < 0 {
					t.Error("negative ReadyDepth")
					return
				}
			}
		}
	}()
	for i := 0; i < 8; i++ {
		g := buildChain(4, 50*time.Microsecond, Kind(i%int(KindOther)))
		s, err := p.Submit(g, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	m := p.Metrics()
	if m.Completed != 32 {
		t.Fatalf("Completed = %d, want 32", m.Completed)
	}
	if m.Submissions != 8 {
		t.Fatalf("Submissions = %d, want 8", m.Submissions)
	}
}

// TestSetInstrumentation checks the A/B hook: a pool built with
// instrumentation off records no busy time or kind latency but keeps the
// scheduler-level counters (which cost nothing extra), and the setting is
// captured at NewPool, not read live.
func TestSetInstrumentation(t *testing.T) {
	SetInstrumentation(false)
	p := NewPool(2)
	SetInstrumentation(true) // restore before any test pool is built

	g := buildChain(3, time.Millisecond, KindS)
	s, err := p.Submit(g, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	p.Close()
	if m.BusyTotal() != 0 {
		t.Fatalf("BusyTotal = %v with instrumentation off, want 0", m.BusyTotal())
	}
	if m.KindLatency[KindS].Count != 0 {
		t.Fatalf("KindLatency[S].Count = %d with instrumentation off, want 0", m.KindLatency[KindS].Count)
	}
	if m.Completed != 3 {
		t.Fatalf("Completed = %d, want 3 (always on)", m.Completed)
	}
	if m.Submissions != 1 {
		t.Fatalf("Submissions = %d, want 1 (always on)", m.Submissions)
	}
}
